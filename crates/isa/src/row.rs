//! Tagged warp value rows: the uniform/affine/full lane structure.
//!
//! The paper's Section 3 optimization principles are *analytical* rules over
//! warp access patterns: a half-warp coalesces when lane `k` touches word
//! `k`, banks conflict by the stride of the word index. Those patterns exist
//! because almost every register in the paper's kernels is either
//! warp-uniform (parameters, block-level constants) or affine in the lane
//! index (`tid`-derived induction values and addresses). [`LaneRow`] makes
//! that structure explicit: a register row carries a shape tag, and the
//! fold rules below propagate shapes through the integer ALU algebra
//! exactly. The affine shape is affine *per half-warp* — the unit the paper
//! judges coalescing and bank conflicts by — with a second term stepping
//! between the two halves: lane `l` holds
//! `base + stride·(l mod 16) + step·(l div 16)`. That covers the 1-D rows
//! `base + s·l` (`step = 16·s`) and the `tid.x`/`tid.y` rows of a 16-wide
//! 2-D thread block (`{0, 1, 0}` and `{2w, 0, 1}` in warp `w`) alike. In
//! wrapping mod-2^32 arithmetic such a row stays affine under add/sub,
//! multiply-by-uniform, and left shift, so the simulator executes those
//! warp instructions in O(1) instead of O(32) and derives memory degrees in
//! closed form (see `g80_sim::memory`).
//!
//! Exactness contract: every fold in this module returns `Some(shape)` only
//! when expanding `shape` yields **bit-identical** lanes to running the
//! per-lane evaluator on the expanded operands. Uniform operands fold
//! through *any* op (identical input bits give identical output bits, floats
//! included); affine operands fold only through ops that are affine in
//! wrapping u32 arithmetic. Anything else returns `None` and the caller
//! falls back to the full 32-lane evaluator. Folds never return
//! [`LaneRow::Full`]: `Some` always describes the row without touching lane
//! storage.

use crate::exec::{self, Row};
use crate::inst::{AluOp, CmpOp, Scalar, SfuOp, UnOp};
use crate::Value;

/// The shape of one 32-lane register row.
///
/// `Full` carries no payload: it tags a row whose lanes live in the
/// register file's 32-entry backing storage (the representation the eager
/// engines always used). `Uniform`/`Affine` describe the whole row in a
/// word or two; the backing storage for such a row is *stale* until
/// materialized.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum LaneRow {
    /// Every lane holds the same bit pattern.
    Uniform(Value),
    /// Lane `l` holds `base + stride·(l mod 16) + step·(l div 16)`, wrapping
    /// (see [`affine_lanes`]): affine within each half-warp, the hi half
    /// offset from the lo half by `step`.
    Affine { base: u32, stride: u32, step: u32 },
    /// No structure known; lanes live in backing storage.
    Full,
}

/// Lane `l` of the affine form `(base, stride, step)`:
/// `base + stride·(l mod 16) + step·(l div 16)` in wrapping u32 arithmetic.
#[inline]
fn affine_lane(base: u32, stride: u32, step: u32, l: u32) -> u32 {
    base.wrapping_add(stride.wrapping_mul(l % 16))
        .wrapping_add(step.wrapping_mul(l / 16))
}

/// Calls `f(lane, value)` for each of the 32 lanes of the affine form
/// `(base, stride, step)`, in lane order — the one walk over a shaped row
/// that every consumer shares (register expansion here, lane addresses in
/// `g80_sim`). One running sum per half-warp, so a consumer's loop body
/// sees a plain induction variable.
#[inline(always)]
pub fn for_each_affine_lane(base: u32, stride: u32, step: u32, mut f: impl FnMut(usize, u32)) {
    let (mut lo, mut hi) = (base, base.wrapping_add(step));
    for l in 0..16 {
        f(l, lo);
        lo = lo.wrapping_add(stride);
    }
    for l in 16..32 {
        f(l, hi);
        hi = hi.wrapping_add(stride);
    }
}

/// All 32 lane values of the affine form `(base, stride, step)`.
#[inline]
pub fn affine_lanes(base: u32, stride: u32, step: u32) -> [u32; 32] {
    let mut lanes = [0u32; 32];
    for_each_affine_lane(base, stride, step, |l, a| lanes[l] = a);
    lanes
}

impl LaneRow {
    /// Affine constructor that canonicalizes `stride = step = 0` to
    /// `Uniform`, so downstream folds (which accept `Uniform` everywhere)
    /// see the strongest shape.
    #[inline]
    pub fn affine(base: u32, stride: u32, step: u32) -> LaneRow {
        if stride == 0 && step == 0 {
            LaneRow::Uniform(Value(base))
        } else {
            LaneRow::Affine { base, stride, step }
        }
    }

    /// The value of lane `l`. `None` for `Full` (the shape does not carry
    /// lane data).
    #[inline]
    pub fn lane(self, l: usize) -> Option<Value> {
        let (base, stride, step) = self.terms()?;
        Some(Value(affine_lane(base, stride, step, l as u32)))
    }

    /// Expands the shape into `dst`. Returns `false` (leaving `dst`
    /// untouched) for `Full`.
    #[inline]
    pub fn expand_into(self, dst: &mut Row) -> bool {
        match self {
            LaneRow::Uniform(v) => {
                dst.fill(v);
                true
            }
            LaneRow::Affine { base, stride, step } => {
                *dst = affine_lanes(base, stride, step).map(Value);
                true
            }
            LaneRow::Full => false,
        }
    }

    /// `(base, stride, step)` view for address arithmetic: a `Uniform` row
    /// is `(v, 0, 0)`; `Full` has no closed form. The lo half-warp is the
    /// affine run `(base, stride)`, the hi half `(base + step, stride)`.
    #[inline]
    pub fn terms(self) -> Option<(u32, u32, u32)> {
        match self {
            LaneRow::Uniform(v) => Some((v.0, 0, 0)),
            LaneRow::Affine { base, stride, step } => Some((base, stride, step)),
            LaneRow::Full => None,
        }
    }

    /// Classifies an eager 32-lane row (used for launch-constant rows like
    /// the `tid` specials, where the one-time scan is amortized over the
    /// whole launch).
    pub fn classify(row: &Row) -> LaneRow {
        let base = row[0].0;
        let stride = row[1].0.wrapping_sub(base);
        let step = row[16].0.wrapping_sub(base);
        if row.map(|v| v.0) == affine_lanes(base, stride, step) {
            LaneRow::affine(base, stride, step)
        } else {
            LaneRow::Full
        }
    }
}

/// Folds a two-source ALU op over shapes. See the module-level exactness
/// contract: uniform⊕uniform folds for every op; affine rows fold only
/// through the ops that are affine in wrapping u32 arithmetic (add,
/// subtract, multiply-by-uniform, left-shift-by-uniform), all of which act
/// componentwise on the three terms.
pub fn fold_alu(op: AluOp, a: LaneRow, b: LaneRow) -> Option<LaneRow> {
    use LaneRow::*;
    if let (Uniform(x), Uniform(y)) = (a, b) {
        return Some(Uniform(exec::eval_alu(op, x, y)));
    }
    match (op, a, b) {
        // A uniform operand is the affine row `(v, 0, 0)`, so one rule
        // covers affine±affine and affine±uniform in either order.
        (AluOp::IAdd, _, _) => {
            let (x, y) = (a.terms()?, b.terms()?);
            Some(LaneRow::affine(
                x.0.wrapping_add(y.0),
                x.1.wrapping_add(y.1),
                x.2.wrapping_add(y.2),
            ))
        }
        (AluOp::ISub, _, _) => {
            let (x, y) = (a.terms()?, b.terms()?);
            Some(LaneRow::affine(
                x.0.wrapping_sub(y.0),
                x.1.wrapping_sub(y.1),
                x.2.wrapping_sub(y.2),
            ))
        }
        (AluOp::IMul, Affine { base, stride, step }, Uniform(k))
        | (AluOp::IMul, Uniform(k), Affine { base, stride, step }) => {
            let mul = |t: u32| t.wrapping_mul(k.0);
            Some(LaneRow::affine(mul(base), mul(stride), mul(step)))
        }
        // x << k == x · 2^(k & 31) in wrapping u32 arithmetic, so the shift
        // distributes over the affine form exactly.
        (AluOp::Shl, Affine { base, stride, step }, Uniform(k)) => {
            let shl = |t: u32| t.wrapping_shl(k.0 & 31);
            Some(LaneRow::affine(shl(base), shl(stride), shl(step)))
        }
        _ => None,
    }
}

/// Folds a one-source op over a shape. `Mov` passes any non-`Full` shape
/// through; `Not` is `-x - 1`, affine with the negated stride and step;
/// everything else folds only from uniform.
pub fn fold_un(op: UnOp, a: LaneRow) -> Option<LaneRow> {
    use LaneRow::*;
    match (op, a) {
        (_, Full) => None,
        (_, Uniform(x)) => Some(Uniform(exec::eval_un(op, x))),
        (UnOp::Mov, s) => Some(s),
        (UnOp::Not, Affine { base, stride, step }) => Some(LaneRow::affine(
            !base,
            stride.wrapping_neg(),
            step.wrapping_neg(),
        )),
        _ => None,
    }
}

/// Folds an integer multiply-add over shapes: the product folds by the
/// `IMul` rule, the sum by the `IAdd` rule.
pub fn fold_imad(a: LaneRow, b: LaneRow, c: LaneRow) -> Option<LaneRow> {
    let prod = fold_alu(AluOp::IMul, a, b)?;
    fold_alu(AluOp::IAdd, prod, c)
}

/// Folds a floating multiply-add: uniform operands only (float ops are not
/// affine in the bit pattern).
pub fn fold_ffma(a: LaneRow, b: LaneRow, c: LaneRow) -> Option<LaneRow> {
    use LaneRow::*;
    match (a, b, c) {
        (Uniform(x), Uniform(y), Uniform(z)) => Some(Uniform(exec::eval_ffma(x, y, z))),
        _ => None,
    }
}

/// Folds an SFU transcendental: uniform only.
pub fn fold_sfu(op: SfuOp, a: LaneRow) -> Option<LaneRow> {
    match a {
        LaneRow::Uniform(x) => Some(LaneRow::Uniform(exec::eval_sfu(op, x))),
        _ => None,
    }
}

/// Folds a comparison: uniform only (ordering is not preserved by wrapping
/// affine arithmetic).
pub fn fold_cmp(op: CmpOp, ty: Scalar, a: LaneRow, b: LaneRow) -> Option<LaneRow> {
    use LaneRow::*;
    match (a, b) {
        (Uniform(x), Uniform(y)) => Some(Uniform(exec::eval_cmp(op, ty, x, y))),
        _ => None,
    }
}

/// Folds a select: a uniform condition picks one source shape whole (if
/// that shape is not `Full`); otherwise uniform-everything.
pub fn fold_sel(c: LaneRow, a: LaneRow, b: LaneRow) -> Option<LaneRow> {
    match c {
        LaneRow::Uniform(cv) => {
            let pick = if cv.as_bool() { a } else { b };
            if pick == LaneRow::Full {
                None
            } else {
                Some(pick)
            }
        }
        _ => None,
    }
}

/// Greatest common divisor (used by the closed-form bank-conflict degree).
pub fn gcd(mut a: u32, mut b: u32) -> u32 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expand(s: LaneRow) -> Row {
        let mut r = [Value::ZERO; 32];
        assert!(s.expand_into(&mut r), "expand of non-Full shape");
        r
    }

    fn u(v: u32) -> LaneRow {
        LaneRow::Uniform(Value(v))
    }

    /// A 1-D affine row `base + stride·l`: the hi half continues the lo
    /// half's run, `step = 16·stride`.
    fn af(base: u32, stride: u32) -> LaneRow {
        af3(base, stride, stride.wrapping_mul(16))
    }

    fn af3(base: u32, stride: u32, step: u32) -> LaneRow {
        LaneRow::Affine { base, stride, step }
    }

    /// Every Some() fold must match the per-lane evaluator bit-for-bit.
    #[test]
    fn alu_folds_match_lane_eval() {
        let shapes = [
            u(0),
            u(7),
            u(0xdead_beef),
            u(Value::from_f32(1.5).0),
            af(0x1000, 4),
            af(3, 0x8000_0001),
            af(u32::MAX - 5, 7),
            af(0, u32::MAX),
            af3(0, 1, 0),              // tid.x of a 16-wide block
            af3(6, 0, 1),              // tid.y of a 16-wide block, warp 3
            af3(0x40, 4, 0x8000_0000), // overflow-prone step
        ];
        let ops = [
            AluOp::FAdd,
            AluOp::FMul,
            AluOp::FMin,
            AluOp::IAdd,
            AluOp::ISub,
            AluOp::IMul,
            AluOp::UMin,
            AluOp::IMax,
            AluOp::And,
            AluOp::Xor,
            AluOp::Shl,
            AluOp::ShrU,
            AluOp::ShrS,
            AluOp::Rotl,
        ];
        for &op in &ops {
            for &a in &shapes {
                for &b in &shapes {
                    if let Some(folded) = fold_alu(op, a, b) {
                        let (ar, br) = (expand(a), expand(b));
                        let got = expand(folded);
                        for l in 0..32 {
                            assert_eq!(
                                got[l],
                                exec::eval_alu(op, ar[l], br[l]),
                                "{op:?} {a:?} {b:?} lane {l}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn un_and_imad_folds_match_lane_eval() {
        let shapes = [
            u(5),
            u(0xffff_fff0),
            af(0x40, 4),
            af(9, u32::MAX - 2),
            af3(2, 0, 1),
            af3(0, 4, 0x400),
        ];
        for &op in &[UnOp::Mov, UnOp::Not, UnOp::FNeg, UnOp::CvtI2F, UnOp::CvtF2U] {
            for &a in &shapes {
                if let Some(folded) = fold_un(op, a) {
                    let ar = expand(a);
                    let got = expand(folded);
                    for l in 0..32 {
                        assert_eq!(got[l], exec::eval_un(op, ar[l]), "{op:?} {a:?} lane {l}");
                    }
                }
            }
        }
        for &a in &shapes {
            for &b in &shapes {
                for &c in &shapes {
                    if let Some(folded) = fold_imad(a, b, c) {
                        let (ar, br, cr) = (expand(a), expand(b), expand(c));
                        let got = expand(folded);
                        for l in 0..32 {
                            assert_eq!(
                                got[l],
                                exec::eval_imad(ar[l], br[l], cr[l]),
                                "imad {a:?} {b:?} {c:?} lane {l}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn affine_rows_do_not_fold_through_float_or_shift_right() {
        let a = af(0x100, 4);
        assert_eq!(fold_alu(AluOp::FAdd, a, u(1)), None);
        assert_eq!(fold_alu(AluOp::ShrU, a, u(2)), None);
        assert_eq!(fold_alu(AluOp::Shl, u(2), a), None); // shape in the count
        assert_eq!(fold_alu(AluOp::IMul, a, a), None); // quadratic in l
        assert_eq!(fold_ffma(a, u(1), u(2)), None);
        assert_eq!(fold_sfu(SfuOp::Rcp, a), None);
        assert_eq!(fold_cmp(CmpOp::Lt, Scalar::U32, a, u(7)), None);
    }

    #[test]
    fn zero_stride_and_step_canonicalize_to_uniform() {
        assert_eq!(LaneRow::affine(42, 0, 0), u(42));
        assert_eq!(LaneRow::affine(42, 0, 1), af3(42, 0, 1));
        assert_eq!(
            fold_alu(AluOp::ISub, af(10, 4), af(2, 4)),
            Some(u(8)),
            "equal strides cancel"
        );
    }

    /// The 16x16-block address chain the shape exists for: `tid.y·n + tid.x`
    /// scaled to bytes stays one shape, its halves `n` words apart.
    #[test]
    fn two_d_block_address_chain_folds() {
        let (tid_x, tid_y) = (af3(0, 1, 0), af3(6, 0, 1));
        let idx = fold_imad(tid_y, u(256), tid_x).unwrap();
        assert_eq!(idx, af3(6 * 256, 1, 256));
        let byte = fold_alu(AluOp::Shl, idx, u(2)).unwrap();
        let addr = fold_alu(AluOp::IAdd, byte, u(0x1_0000)).unwrap();
        assert_eq!(addr, af3(0x1_0000 + 6 * 1024, 4, 1024));
        assert_eq!(addr.lane(17), Some(Value(0x1_0000 + 7 * 1024 + 4)));
    }

    #[test]
    fn sel_picks_whole_shape_on_uniform_condition() {
        let a = af(0x100, 4);
        assert_eq!(fold_sel(u(1), a, u(9)), Some(a));
        assert_eq!(fold_sel(u(0), a, u(9)), Some(u(9)));
        assert_eq!(fold_sel(u(1), LaneRow::Full, u(9)), None);
        assert_eq!(fold_sel(a, u(1), u(2)), None);
    }

    #[test]
    fn classify_roundtrips() {
        let mut row = [Value::ZERO; 32];
        af(0x20, 12).expand_into(&mut row);
        assert_eq!(LaneRow::classify(&row), af(0x20, 12));
        u(77).expand_into(&mut row);
        assert_eq!(LaneRow::classify(&row), u(77));
        af3(4, 0, 1).expand_into(&mut row);
        assert_eq!(LaneRow::classify(&row), af3(4, 0, 1));
        row[13] = Value(1);
        assert_eq!(LaneRow::classify(&row), LaneRow::Full);
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(0, 16), 16);
        assert_eq!(gcd(4, 16), 4);
        assert_eq!(gcd(6, 16), 2);
        assert_eq!(gcd(5, 16), 1);
    }
}
