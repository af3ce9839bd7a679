//! Property tests for the row value structure: the vectorized row
//! evaluators (SIMD or chunked-scalar, whichever the host picks) and the
//! `LaneRow` shape folds must be bit-identical to the frozen per-lane
//! scalar evaluators — on randomized rows, under partial masks, and on
//! the f32 values that break naive SIMD equivalence (NaN payloads,
//! signaling NaNs, denormals, signed zeros, infinities). The simulated
//! SFU's `Sin`/`Cos` — defined in `exec`, not by libm — are additionally
//! held to an accuracy bound against `f64`, to totality, and to *strict*
//! row = scalar bit equality (exhaustively in an ignored test).

use g80_isa::{
    eval_alu, eval_alu_row, eval_cmp, eval_cmp_row, eval_ffma, eval_ffma_row, eval_imad,
    eval_imad_row, eval_sel_row, eval_sfu, eval_sfu_row, eval_un, eval_un_row, fold_alu, fold_cmp,
    fold_ffma, fold_imad, fold_sel, fold_sfu, fold_un, Row,
};
use g80_isa::{AluOp, CmpOp, LaneRow, Scalar, SfuOp, UnOp, Value};

/// Deterministic xorshift — the tests must not depend on ambient RNG.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    fn u32(&mut self) -> u32 {
        (self.next() >> 32) as u32
    }
    /// A 32-bit pattern biased heavily toward the f32 values that expose
    /// SIMD/scalar divergence: NaNs with distinct payloads, signaling
    /// NaNs, ±0, ±inf, denormals, and values near the i32/u32 conversion
    /// boundaries — and toward the simulated SFU's own seams: octant edges
    /// (π/4, π/2 and their bit neighbours), the ±8192 hand-over from the
    /// Cody–Waite path to the `f64` remainder, and arguments far beyond it
    /// — with plain random bits mixed in.
    fn special(&mut self) -> u32 {
        const POOL: [u32; 37] = [
            0x7fc0_0000, // canonical qNaN
            0xffc0_0001, // negative qNaN, nonzero payload
            0x7f80_0001, // signaling NaN
            0x7f80_0000, // +inf
            0xff80_0000, // -inf
            0x0000_0000, // +0.0
            0x8000_0000, // -0.0
            0x0000_0001, // smallest denormal
            0x807f_ffff, // largest negative denormal
            0x0040_0000, // mid denormal
            0x3f80_0000, // 1.0
            0x4f00_0000, // 2^31 (f32->i32 overflow boundary)
            0xcf00_0000, // -2^31
            0x7fff_ffff, // i32::MAX as bits (a NaN with a full payload)
            0xff80_0001, // negative signaling NaN
            0x7fa5_5aa5, // signaling NaN, scattered payload
            0x8000_0001, // smallest negative denormal
            0x007f_ffff, // largest denormal
            0x0080_0000, // smallest normal
            0x3f49_0fda, // π/4 rounded down
            0x3f49_0fdb, // π/4 rounded up
            0xbf49_0fdb, // -π/4
            0x3fc9_0fda, // π/2 rounded down
            0x3fc9_0fdb, // π/2 rounded up
            0xbfc9_0fdb, // -π/2
            0x4049_0fdb, // π
            0x45ff_ffff, // just below 8192
            0x4600_0000, // 8192: last argument of the fast path
            0x4600_0001, // just above 8192: first of the slow path
            0xc600_0000, // -8192
            0xc600_0001, // just below -8192
            0x47c3_5000, // 1e5
            0xc7c3_5000, // -1e5
            0x4e6e_6b28, // 1e9
            0xce6e_6b28, // -1e9
            0x7f7f_ffff, // f32::MAX
            0xff7f_ffff, // -f32::MAX
        ];
        let r = self.next();
        if r & 3 == 0 {
            POOL[(r >> 8) as usize % POOL.len()]
        } else {
            self.u32()
        }
    }
    fn row(&mut self) -> Row {
        std::array::from_fn(|_| Value::from_u32(self.special()))
    }
    /// Full, empty, or random partial masks, with full over-represented
    /// (the fast paths only engage there).
    fn mask(&mut self) -> u32 {
        match self.next() & 3 {
            0 => u32::MAX,
            1 => self.u32(),
            2 => 1 << (self.next() % 32),
            _ => u32::MAX,
        }
    }
}

const ALU_OPS: [AluOp; 19] = [
    AluOp::FAdd,
    AluOp::FSub,
    AluOp::FMul,
    AluOp::FMin,
    AluOp::FMax,
    AluOp::IAdd,
    AluOp::ISub,
    AluOp::IMul,
    AluOp::UMin,
    AluOp::UMax,
    AluOp::IMin,
    AluOp::IMax,
    AluOp::And,
    AluOp::Or,
    AluOp::Xor,
    AluOp::Shl,
    AluOp::ShrU,
    AluOp::ShrS,
    AluOp::Rotl,
];
const UN_OPS: [UnOp; 9] = [
    UnOp::Mov,
    UnOp::FNeg,
    UnOp::FAbs,
    UnOp::Not,
    UnOp::CvtF2I,
    UnOp::CvtI2F,
    UnOp::CvtF2U,
    UnOp::CvtU2F,
    UnOp::FFloor,
];
const SFU_OPS: [SfuOp; 7] = [
    SfuOp::Rcp,
    SfuOp::Rsqrt,
    SfuOp::Sqrt,
    SfuOp::Sin,
    SfuOp::Cos,
    SfuOp::Ex2,
    SfuOp::Lg2,
];
const CMP_OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];
const SCALARS: [Scalar; 3] = [Scalar::F32, Scalar::U32, Scalar::I32];

/// Asserts `got` equals the per-lane scalar evaluation under `mask`:
/// active lanes must match the scalar op bit for bit, NaN payloads
/// included (`exec`'s NaN rule holds both forms to one answer), inactive
/// lanes must still hold the sentinel the destination row was seeded
/// with.
fn assert_masked_row(
    label: &str,
    got: &Row,
    sentinel: &Row,
    mask: u32,
    scalar: impl Fn(usize) -> Value,
) {
    for l in 0..32 {
        let want = if mask >> l & 1 == 1 {
            scalar(l)
        } else {
            sentinel[l]
        };
        assert!(
            got[l].0 == want.0,
            "{label}: lane {l} diverges (mask {mask:#010x}): got {:#010x}, want {:#010x}",
            got[l].0,
            want.0
        );
    }
}

#[test]
fn row_evaluators_match_scalar_on_specials_and_partial_masks() {
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    for iter in 0..400 {
        let a = rng.row();
        let b = rng.row();
        let c = rng.row();
        let mask = rng.mask();
        let sentinel: Row = std::array::from_fn(|l| Value::from_u32(0xdead_0000 | l as u32));

        for op in ALU_OPS {
            let mut dst = sentinel;
            eval_alu_row(op, &a, &b, &mut dst, mask);
            assert_masked_row(
                &format!("alu {op:?} iter {iter}"),
                &dst,
                &sentinel,
                mask,
                |l| eval_alu(op, a[l], b[l]),
            );
        }
        for op in UN_OPS {
            let mut dst = sentinel;
            eval_un_row(op, &a, &mut dst, mask);
            assert_masked_row(
                &format!("un {op:?} iter {iter}"),
                &dst,
                &sentinel,
                mask,
                |l| eval_un(op, a[l]),
            );
        }
        for op in SFU_OPS {
            let mut dst = sentinel;
            eval_sfu_row(op, &a, &mut dst, mask);
            assert_masked_row(
                &format!("sfu {op:?} iter {iter}"),
                &dst,
                &sentinel,
                mask,
                |l| eval_sfu(op, a[l]),
            );
        }
        for op in CMP_OPS {
            for ty in SCALARS {
                let mut dst = sentinel;
                eval_cmp_row(op, ty, &a, &b, &mut dst, mask);
                assert_masked_row(
                    &format!("cmp {op:?} {ty:?} iter {iter}"),
                    &dst,
                    &sentinel,
                    mask,
                    |l| eval_cmp(op, ty, a[l], b[l]),
                );
            }
        }
        let mut dst = sentinel;
        eval_ffma_row(&a, &b, &c, &mut dst, mask);
        assert_masked_row(&format!("ffma iter {iter}"), &dst, &sentinel, mask, |l| {
            eval_ffma(a[l], b[l], c[l])
        });
        let mut dst = sentinel;
        eval_imad_row(&a, &b, &c, &mut dst, mask);
        assert_masked_row(&format!("imad iter {iter}"), &dst, &sentinel, mask, |l| {
            eval_imad(a[l], b[l], c[l])
        });
        let mut dst = sentinel;
        eval_sel_row(&c, &a, &b, &mut dst, mask);
        assert_masked_row(&format!("sel iter {iter}"), &dst, &sentinel, mask, |l| {
            if c[l].0 != 0 {
                a[l]
            } else {
                b[l]
            }
        });
    }
}

const TRIG_NAN: u32 = 0x7fc0_0000;

fn trig_f64(op: SfuOp, x: f32) -> f64 {
    match op {
        SfuOp::Sin => (x as f64).sin(),
        _ => (x as f64).cos(),
    }
}

/// The simulated SFU's `Sin`/`Cos` against the host's `f64` libm: within
/// 1e-6 absolute on a dense grid over |x| ≤ 8192 (the grid steps through
/// every octant at ~2⁻⁹ spacing and adds the bit neighbours of each octant
/// edge), and total on random bit patterns — every finite input lands in
/// [−1, 1], every NaN/∞ gives the one canonical NaN.
#[test]
fn sfu_trig_is_accurate_bounded_and_total() {
    for op in [SfuOp::Sin, SfuOp::Cos] {
        let mut worst = (0.0f64, 0.0f32);
        let mut check = |x: f32| {
            let got = eval_sfu(op, Value::from_f32(x)).as_f32();
            let err = (got as f64 - trig_f64(op, x)).abs();
            if err > worst.0 {
                worst = (err, x);
            }
        };
        for i in -(8192 << 9)..=8192 << 9 {
            check(i as f32 / 512.0);
        }
        for k in 0..=(8192.0 * 4.0 / std::f64::consts::PI) as u32 {
            let edge = (k as f64 * std::f64::consts::FRAC_PI_4) as f32;
            for d in -2i32..=2 {
                let x = f32::from_bits((edge.to_bits() as i32 + d) as u32);
                if x.abs() <= 8192.0 {
                    check(x);
                    check(-x);
                }
            }
        }
        assert!(
            worst.0 <= 1e-6,
            "{op:?}: |err| {:e} at x = {:e}",
            worst.0,
            worst.1
        );
    }

    let mut rng = Rng(0xb7e1_5162_8aed_2a6a);
    for _ in 0..2_000_000 {
        let bits = rng.special();
        let x = f32::from_bits(bits);
        for op in [SfuOp::Sin, SfuOp::Cos] {
            let got = eval_sfu(op, Value(bits)).as_f32();
            if x.is_finite() {
                assert!(got.abs() <= 1.0, "{op:?}({x:e} = {bits:#010x}) = {got:e}");
            } else {
                assert_eq!(got.to_bits(), TRIG_NAN, "{op:?}({bits:#010x})");
            }
        }
    }
}

/// Asserts `eval_sfu_row` = per-lane `eval_sfu`, strictly bit for bit (NaN
/// payloads included: the trig kernel defines its own), for `Sin` and `Cos`
/// on the 32 consecutive bit patterns starting at `base` under `mask`.
fn assert_trig_rows_bit_exact(base: u32, mask: u32) {
    let a: Row = std::array::from_fn(|l| Value(base.wrapping_add(l as u32)));
    let sentinel = [Value(0xdead_beef); 32];
    for op in [SfuOp::Sin, SfuOp::Cos] {
        let mut dst = sentinel;
        eval_sfu_row(op, &a, &mut dst, mask);
        for l in 0..32 {
            let want = if mask >> l & 1 == 1 {
                eval_sfu(op, a[l])
            } else {
                sentinel[l]
            };
            assert_eq!(dst[l], want, "{op:?} lane {l} of {a:?} mask {mask:#010x}");
        }
    }
}

/// The row kernel is the scalar kernel, not an approximation of it: strict
/// equality on random 32-pattern windows (1.6 M inputs per op) under full
/// and partial masks. The exhaustive form is the ignored test below.
#[test]
fn sfu_trig_rows_are_bit_identical_to_scalar() {
    let mut rng = Rng(0x6a09_e667_f3bc_c908);
    for _ in 0..50_000 {
        assert_trig_rows_bit_exact(rng.special(), rng.mask());
    }
}

/// All 2³² bit patterns, `Sin` and `Cos`, row vs scalar. A few minutes in
/// release; the CI release job runs it with `--ignored`.
#[test]
#[ignore = "exhaustive: 2^32 inputs per op"]
fn sfu_trig_rows_are_bit_identical_to_scalar_exhaustive() {
    for base in (0..=u32::MAX).step_by(32) {
        assert_trig_rows_bit_exact(base, u32::MAX);
    }
}

/// A random non-`Full` shape, including special-float bit patterns as
/// uniform values, extreme strides (overflow-prone, power-of-two), every
/// period `p` from 2 to 16, and every relation between the run step and the
/// stride: the 1-D continuation `p·stride`, the restart `0` (a `p`-wide
/// block's `tid.x`), a pure step under a zero stride (its `tid.y`), and
/// unrelated values.
fn shape(rng: &mut Rng) -> LaneRow {
    if rng.next() & 1 == 0 {
        LaneRow::Uniform(Value::from_u32(rng.special()))
    } else {
        let log2p = 1 + (rng.next() % 4) as u8;
        affine_shape(rng, log2p)
    }
}

/// A random `Uniform`-or-`Affine` shape built at period `2^log2p` (a 1-D or
/// zero draw canonicalizes away from it, as in the engine).
fn affine_shape(rng: &mut Rng, log2p: u8) -> LaneRow {
    let stride = match rng.next() & 7 {
        0 => 4,
        1 => 1 << 29,
        2 => 1 << 30,
        3 => 0x8000_0000,
        4 => rng.u32() | 0x8000_0000, // huge: wrapping exercised
        5 => 0,
        _ => rng.u32() & 0xffff,
    };
    let step = match rng.next() & 7 {
        0 | 1 => stride << log2p,
        2 => 0,
        3 => 1,
        4 => 0x8000_0000,
        5 => rng.u32() | 0xf000_0000, // overflow-prone
        _ => rng.u32() & 0xf_ffff,
    };
    LaneRow::affine(rng.special(), stride, step, log2p)
}

fn expand(s: LaneRow) -> Row {
    let mut r = [Value::ZERO; 32];
    assert!(s.expand_into(&mut r), "non-Full shapes must expand");
    r
}

/// Every successful fold must be *exact*: expanding the folded shape has
/// to reproduce, bit for bit, what the scalar evaluator computes on the
/// expanded operands. (`None` is always a legal answer; `Some` never gets
/// to be approximately right.)
#[test]
fn shape_folds_are_bit_exact_against_scalar_evaluation() {
    let mut rng = Rng(0x243f_6a88_85a3_08d3);
    for _ in 0..2000 {
        let a = shape(&mut rng);
        let b = shape(&mut rng);
        let c = shape(&mut rng);
        let (ar, br, cr) = (expand(a), expand(b), expand(c));

        for op in ALU_OPS {
            if let Some(f) = fold_alu(op, a, b) {
                let got = expand(f);
                for l in 0..32 {
                    let want = eval_alu(op, ar[l], br[l]);
                    assert!(
                        got[l].0 == want.0,
                        "fold_alu {op:?} lane {l}: {a:?} {b:?}: got {:#010x}, want {:#010x}",
                        got[l].0,
                        want.0
                    );
                }
            }
        }
        for op in UN_OPS {
            if let Some(f) = fold_un(op, a) {
                let got = expand(f);
                for l in 0..32 {
                    let want = eval_un(op, ar[l]);
                    assert!(
                        got[l].0 == want.0,
                        "fold_un {op:?} lane {l}: {a:?}: got {:#010x}, want {:#010x}",
                        got[l].0,
                        want.0
                    );
                }
            }
        }
        for op in SFU_OPS {
            if let Some(f) = fold_sfu(op, a) {
                let got = expand(f);
                for l in 0..32 {
                    let want = eval_sfu(op, ar[l]);
                    assert!(
                        got[l].0 == want.0,
                        "fold_sfu {op:?} lane {l}: {a:?}: got {:#010x}, want {:#010x}",
                        got[l].0,
                        want.0
                    );
                }
            }
        }
        for op in CMP_OPS {
            for ty in SCALARS {
                if let Some(f) = fold_cmp(op, ty, a, b) {
                    let got = expand(f);
                    for l in 0..32 {
                        assert_eq!(
                            got[l].0,
                            eval_cmp(op, ty, ar[l], br[l]).0,
                            "fold_cmp {op:?} {ty:?} lane {l}: {a:?} {b:?}"
                        );
                    }
                }
            }
        }
        if let Some(f) = fold_imad(a, b, c) {
            let got = expand(f);
            for l in 0..32 {
                assert_eq!(
                    got[l].0,
                    eval_imad(ar[l], br[l], cr[l]).0,
                    "fold_imad lane {l}: {a:?} {b:?} {c:?}"
                );
            }
        }
        if let Some(f) = fold_ffma(a, b, c) {
            let got = expand(f);
            for l in 0..32 {
                let want = eval_ffma(ar[l], br[l], cr[l]);
                assert!(
                    got[l].0 == want.0,
                    "fold_ffma lane {l}: {a:?} {b:?} {c:?}: got {:#010x}, want {:#010x}",
                    got[l].0,
                    want.0
                );
            }
        }
        if let Some(f) = fold_sel(c, a, b) {
            let got = expand(f);
            for l in 0..32 {
                let want = if cr[l].0 != 0 { ar[l] } else { br[l] };
                assert_eq!(got[l].0, want.0, "fold_sel lane {l}: {c:?} {a:?} {b:?}");
            }
        }
    }
}

/// Operands of different periods: a fold is `None` or bit-exact, never
/// wrong — and the two directions the algebra promises hold. A 1-D row
/// (which `LaneRow::affine` keeps at `p = 16`) meets a narrower row at that
/// row's period, so add/sub always fold; two rows that are each genuinely of
/// their own, different, period never do.
#[test]
fn mixed_period_folds_reexpress_one_d_rows_and_refuse_the_rest() {
    let is_one_d = |s: LaneRow| {
        let t = s.terms().unwrap();
        t.step == t.stride << t.log2p
    };
    let assert_exact = |op: AluOp, a: LaneRow, b: LaneRow, f: LaneRow| {
        let (ar, br, got) = (expand(a), expand(b), expand(f));
        for l in 0..32 {
            let want = eval_alu(op, ar[l], br[l]);
            assert_eq!(got[l], want, "{op:?} lane {l}: {a:?} {b:?} -> {f:?}");
        }
    };
    let mut rng = Rng(0x4528_21e6_38d0_1377);
    let (mut reexpressed, mut refused) = (0, 0);
    for _ in 0..4000 {
        let (ka, kb) = (1 + (rng.next() % 4) as u8, 1 + (rng.next() % 4) as u8);
        let (a, b) = (affine_shape(&mut rng, ka), affine_shape(&mut rng, kb));
        let (pa, pb) = (a.terms().unwrap().log2p, b.terms().unwrap().log2p);
        for op in [AluOp::IAdd, AluOp::ISub] {
            match fold_alu(op, a, b) {
                Some(f) => {
                    assert_exact(op, a, b, f);
                    if pa != pb {
                        reexpressed += 1;
                    }
                }
                None => {
                    assert!(
                        pa != pb && !is_one_d(a) && !is_one_d(b),
                        "{op:?} {a:?} {b:?}"
                    );
                    refused += 1;
                }
            }
        }
        if is_one_d(a) || is_one_d(b) || pa == pb {
            assert!(fold_alu(AluOp::IAdd, a, b).is_some(), "{a:?} {b:?}");
        }
    }
    assert!(
        reexpressed > 100 && refused > 100,
        "{reexpressed} / {refused}"
    );
}

/// `classify` must round-trip: a row built from any shape classifies back
/// to a shape that expands to the same 32 lanes, and classifying a
/// perturbed row never produces a shape (no false positives) — over the
/// whole row and over the live prefixes a partial warp presents.
#[test]
fn classify_round_trips_and_rejects_perturbations() {
    let mut rng = Rng(0x1319_8a2e_0370_7344);
    for _ in 0..2000 {
        let s = shape(&mut rng);
        let r = expand(s);
        for (l, &v) in r.iter().enumerate() {
            assert_eq!(s.lane(l), Some(v), "lane() vs expand_into lane {l}: {s:?}");
        }
        // The terms are read off lanes 0, 1 and p of the one period a
        // canonical shape has, so a shape is its own canonical form:
        // classify returns it, not merely an equivalent.
        let c = LaneRow::classify(&r, 32);
        assert_eq!(c, s, "classify∘expand_into must round-trip");

        // A live prefix: dead lanes hold junk and must not matter; the
        // answer need not be `s` (fewer lanes pin down less) but must
        // reproduce every live lane.
        let live = [1, 4, 8, 16, 24, 32][(rng.next() % 6) as usize];
        let mut prefix = r;
        for v in &mut prefix[live..] {
            v.0 = rng.u32();
        }
        let c = LaneRow::classify(&prefix, live);
        assert_ne!(c, LaneRow::Full, "live={live} prefix of {s:?}");
        assert_eq!(expand(c)[..live], r[..live], "live={live} prefix of {s:?}");

        let mut broken = r;
        let lane = (rng.next() % 32) as usize;
        broken[lane].0 ^= 1 << (rng.next() % 32);
        let reclass = LaneRow::classify(&broken, 32);
        let reexp = {
            let mut out = [Value::ZERO; 32];
            if reclass == LaneRow::Full {
                continue; // honestly refused — fine
            }
            assert!(reclass.expand_into(&mut out));
            out
        };
        // If it still classifies (the flip landed on a consistent value),
        // the expansion must still be exact.
        for l in 0..32 {
            assert_eq!(reexp[l].0, broken[l].0, "perturbed classify lane {l}");
        }
    }
}
