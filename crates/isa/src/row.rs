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
//! exactly. The affine shape is affine *per run of `p` lanes*, `p` a power
//! of two no wider than the half-warp the paper judges coalescing and bank
//! conflicts by, with a second term stepping from one run to the next: lane
//! `l` holds `base + stride·(l mod p) + step·(l div p)`. That covers the 1-D
//! rows `base + s·l` (`step = p·s` at any period; kept at `p = 16`) and the
//! `tid.x`/`tid.y` rows of a `p`-wide 2-D thread block (`{0, 1, 0}` and
//! `{(32/p)·w, 0, 1}` in warp `w`) alike — Figure 4's 4×4, 8×8 and 16×16
//! tiles. A 12-wide block has no such form (12 does not divide a half-warp)
//! and its `tid` rows stay [`LaneRow::Full`]. In wrapping mod-2^32 arithmetic
//! an affine row stays affine under add/sub, multiply-by-uniform, and left
//! shift, so the simulator executes those warp instructions in O(1) instead
//! of O(32) and derives memory degrees in closed form (see
//! `g80_sim::memory`).
//!
//! Exactness contract: every fold in this module returns `Some(shape)` only
//! when expanding `shape` yields **bit-identical** lanes to running the
//! per-lane evaluator on the expanded operands. Uniform operands fold
//! through *any* op (identical input bits give identical output bits, floats
//! included); affine operands fold only through ops that are affine in
//! wrapping u32 arithmetic, and only when their periods agree (a 1-D row
//! agrees with every period). Anything else returns `None` and the caller
//! falls back to the full 32-lane evaluator. Folds never return
//! [`LaneRow::Full`]: `Some` always describes the row without touching lane
//! storage.

use crate::exec::{self, Row};
use crate::inst::{AluOp, CmpOp, Scalar, SfuOp, UnOp};
use crate::Value;

/// `log2` of the widest period: one run per half-warp.
pub const LOG2_HALF_WARP: u8 = 4;

/// The shape of one 32-lane register row.
///
/// `Full` carries no payload: it tags a row whose lanes live in the
/// register file's 32-entry backing storage (the representation the eager
/// engines always used). `Uniform`/`Affine` describe the whole row in a
/// word or three; the backing storage for such a row is *stale* until
/// materialized.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum LaneRow {
    /// Every lane holds the same bit pattern.
    Uniform(Value),
    /// Lane `l` holds `base + stride·(l mod p) + step·(l div p)`, wrapping,
    /// with `p = 2^log2p` between 2 and 16 (see [`AffineTerms`]): affine
    /// within each run of `p` lanes, each run offset from the one before by
    /// `step`. Build it with [`LaneRow::affine`], which keeps the form
    /// canonical — no zero row, no 1-D row below `p = 16` — so equal rows
    /// are equal tags.
    Affine {
        base: u32,
        stride: u32,
        step: u32,
        log2p: u8,
    },
    /// No structure known; lanes live in backing storage.
    Full,
}

// The period rides in the tag's padding: a shape is still four words.
const _: () = assert!(std::mem::size_of::<LaneRow>() == 16);

/// The terms of a non-`Full` row, the view address arithmetic works on: lane
/// `l` is `base + stride·(l mod p) + step·(l div p)` with `p = 2^log2p`. A
/// half-warp is `16/p` runs of `p` lanes; run `r` of the warp starts at
/// `base + step·r`.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct AffineTerms {
    pub base: u32,
    pub stride: u32,
    pub step: u32,
    pub log2p: u8,
}

impl AffineTerms {
    /// The terms of the row `base + stride·l`.
    #[inline]
    pub fn linear(base: u32, stride: u32) -> AffineTerms {
        AffineTerms {
            base,
            stride,
            step: stride << LOG2_HALF_WARP,
            log2p: LOG2_HALF_WARP,
        }
    }

    /// Every lane the same value (`stride = step = 0`).
    #[inline]
    pub fn is_uniform(self) -> bool {
        self.stride == 0 && self.step == 0
    }

    /// The same row at period `2^log2p`, if it has that form: its own
    /// period, or any period for a 1-D row (`step = p·stride`, which every
    /// `Uniform` row is).
    #[inline]
    fn at(self, log2p: u8) -> Option<AffineTerms> {
        if self.log2p == log2p {
            Some(self)
        } else if self.step == self.stride << self.log2p {
            Some(AffineTerms {
                step: self.stride << log2p,
                log2p,
                ..self
            })
        } else {
            None
        }
    }

    /// The row with a linear `f` (one that distributes over wrapping sums)
    /// applied to every lane: it acts on each term and keeps the period.
    #[inline]
    fn map(self, f: impl Fn(u32) -> u32) -> LaneRow {
        LaneRow::affine(f(self.base), f(self.stride), f(self.step), self.log2p)
    }

    /// The lane-wise `f` of two rows at the same period, `f` linear in both
    /// arguments (wrapping add or subtract).
    #[inline]
    fn zip(self, other: AffineTerms, f: impl Fn(u32, u32) -> u32) -> LaneRow {
        debug_assert_eq!(self.log2p, other.log2p);
        LaneRow::affine(
            f(self.base, other.base),
            f(self.stride, other.stride),
            f(self.step, other.step),
            self.log2p,
        )
    }

    /// Lane `l` of the row, in wrapping u32 arithmetic.
    #[inline]
    pub fn lane(self, l: u32) -> u32 {
        let in_run = l & ((1 << self.log2p) - 1);
        self.base
            .wrapping_add(self.stride.wrapping_mul(in_run))
            .wrapping_add(self.step.wrapping_mul(l >> self.log2p))
    }
}

/// Calls `f(lane, value)` for each of the first `live` lanes of an affine
/// row, in lane order — the one walk over a shaped row that every consumer
/// shares (register expansion here, lane addresses in `g80_sim`). One
/// running sum per run of `p` lanes, so a consumer's loop body sees a plain
/// induction variable. The whole warp at `p = 16` — every 1-D row, every
/// 16-wide block — is the same loop with its bounds known at compile time.
#[inline(always)]
pub fn for_each_affine_lane(t: AffineTerms, live: usize, f: impl FnMut(usize, u32)) {
    #[inline(always)]
    fn runs(t: AffineTerms, p: usize, live: usize, mut f: impl FnMut(usize, u32)) {
        let (mut run, mut lane) = (t.base, 0);
        while lane < live {
            let mut a = run;
            // The last run of a partial warp may be cut short.
            for _ in 0..p.min(live - lane) {
                f(lane, a);
                lane += 1;
                a = a.wrapping_add(t.stride);
            }
            run = run.wrapping_add(t.step);
        }
    }
    if t.log2p == LOG2_HALF_WARP && live >= 32 {
        runs(t, 16, 32, f)
    } else {
        runs(t, 1 << t.log2p, live.min(32), f)
    }
}

impl LaneRow {
    /// Affine constructor that keeps shapes canonical, so downstream folds
    /// see the strongest shape and equal rows compare equal: `stride = step
    /// = 0` is `Uniform`, and a 1-D row (`step = p·stride`, the same lanes
    /// at every period) is held at `p = 16`.
    #[inline]
    pub fn affine(base: u32, stride: u32, step: u32, log2p: u8) -> LaneRow {
        debug_assert!((1..=LOG2_HALF_WARP).contains(&log2p));
        if stride == 0 && step == 0 {
            return LaneRow::Uniform(Value(base));
        }
        let (step, log2p) = if step == stride << log2p {
            (stride << LOG2_HALF_WARP, LOG2_HALF_WARP)
        } else {
            (step, log2p)
        };
        LaneRow::Affine {
            base,
            stride,
            step,
            log2p,
        }
    }

    /// The value of lane `l`. `None` for `Full` (the shape does not carry
    /// lane data).
    #[inline]
    pub fn lane(self, l: usize) -> Option<Value> {
        Some(Value(self.terms()?.lane(l as u32)))
    }

    /// Expands the shape into `dst`. Returns `false` (leaving `dst`
    /// untouched) for `Full`.
    #[inline]
    pub fn expand_into(self, dst: &mut Row) -> bool {
        match self.terms() {
            None => false,
            Some(t) if t.is_uniform() => {
                dst.fill(Value(t.base));
                true
            }
            Some(t) => {
                for_each_affine_lane(t, 32, |l, a| dst[l] = Value(a));
                true
            }
        }
    }

    /// [`AffineTerms`] view for address arithmetic: a `Uniform` row is
    /// `(v, 0, 0)` (at `p = 16`, and at every other period); `Full` has no
    /// closed form.
    #[inline]
    pub fn terms(self) -> Option<AffineTerms> {
        match self {
            LaneRow::Uniform(v) => Some(AffineTerms::linear(v.0, 0)),
            LaneRow::Affine {
                base,
                stride,
                step,
                log2p,
            } => Some(AffineTerms {
                base,
                stride,
                step,
                log2p,
            }),
            LaneRow::Full => None,
        }
    }

    /// Classifies the first `live` lanes of an eager row (used for
    /// launch-constant rows like the `tid` specials, where the one-time scan
    /// is amortized over the whole launch): the widest period whose terms —
    /// read off lanes 0, 1 and `p` — reproduce every live lane. Lanes past
    /// `live` (the dead tail of a partial warp) constrain nothing; a term no
    /// live lane pins down continues the row linearly.
    pub fn classify(row: &Row, live: usize) -> LaneRow {
        let base = row[0].0;
        let stride = if live > 1 {
            row[1].0.wrapping_sub(base)
        } else {
            0
        };
        for log2p in (1..=LOG2_HALF_WARP).rev() {
            let p = 1usize << log2p;
            let step = if live > p {
                row[p].0.wrapping_sub(base)
            } else {
                stride << log2p
            };
            let t = AffineTerms {
                base,
                stride,
                step,
                log2p,
            };
            if (0..live).all(|l| row[l].0 == t.lane(l as u32)) {
                return LaneRow::affine(base, stride, step, log2p);
            }
        }
        LaneRow::Full
    }
}

/// The terms of two operand rows at their common period: the narrower of
/// the two, to which the other is re-expressed if it is 1-D. `None` when
/// either row is `Full` or the periods cannot be reconciled.
#[inline]
fn common_period(a: LaneRow, b: LaneRow) -> Option<(AffineTerms, AffineTerms)> {
    let (x, y) = (a.terms()?, b.terms()?);
    let log2p = x.log2p.min(y.log2p);
    Some((x.at(log2p)?, y.at(log2p)?))
}

/// Folds a two-source ALU op over shapes. See the module-level exactness
/// contract: uniform⊕uniform folds for every op; affine rows fold only
/// through the ops that are affine in wrapping u32 arithmetic (add,
/// subtract, multiply-by-uniform, left-shift-by-uniform), all of which act
/// componentwise on the three terms and keep the period.
pub fn fold_alu(op: AluOp, a: LaneRow, b: LaneRow) -> Option<LaneRow> {
    use LaneRow::*;
    if let (Uniform(x), Uniform(y)) = (a, b) {
        return Some(Uniform(exec::eval_alu(op, x, y)));
    }
    match (op, a, b) {
        // A uniform operand is the affine row `(v, 0, 0)`, so one rule
        // covers affine±affine and affine±uniform in either order.
        (AluOp::IAdd, _, _) => common_period(a, b).map(|(x, y)| x.zip(y, u32::wrapping_add)),
        (AluOp::ISub, _, _) => common_period(a, b).map(|(x, y)| x.zip(y, u32::wrapping_sub)),
        (AluOp::IMul, Affine { .. }, Uniform(k)) | (AluOp::IMul, Uniform(k), Affine { .. }) => {
            let t = if matches!(a, Uniform(_)) { b } else { a }.terms()?;
            Some(t.map(|term| term.wrapping_mul(k.0)))
        }
        // x << k == x · 2^(k & 31) in wrapping u32 arithmetic, so the shift
        // distributes over the affine form exactly.
        (AluOp::Shl, Affine { .. }, Uniform(k)) => {
            Some(a.terms()?.map(|term| term.wrapping_shl(k.0 & 31)))
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
        (
            UnOp::Not,
            Affine {
                base,
                stride,
                step,
                log2p,
            },
        ) => Some(LaneRow::affine(
            !base,
            stride.wrapping_neg(),
            step.wrapping_neg(),
            log2p,
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

    /// A 1-D affine row `base + stride·l`.
    fn af(base: u32, stride: u32) -> LaneRow {
        LaneRow::affine(base, stride, stride.wrapping_mul(16), 4)
    }

    /// A row of period 16: one run per half-warp.
    fn af3(base: u32, stride: u32, step: u32) -> LaneRow {
        LaneRow::affine(base, stride, step, 4)
    }

    /// A row of period `p`.
    fn afp(base: u32, stride: u32, step: u32, p: u32) -> LaneRow {
        LaneRow::affine(base, stride, step, p.trailing_zeros() as u8)
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
            afp(0, 1, 0, 8),           // tid.x of an 8-wide block
            afp(12, 0, 1, 8),          // tid.y of an 8-wide block, warp 3
            afp(0, 1, 0, 4),           // tid.x of a 4-wide block
            afp(8, 0, 1, 4),           // tid.y of a 4-wide block, warp 1
            afp(0x40, 4, 0x8000_0000, 4),
            afp(5, u32::MAX, 3, 2),
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
            afp(0, 1, 0, 8),
            afp(4, 0, 1, 8),
            afp(0, 1, 0, 4),
            afp(0, 4, 0x400, 4),
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
        assert_eq!(LaneRow::affine(42, 0, 0, 4), u(42));
        assert_eq!(LaneRow::affine(42, 0, 0, 2), u(42));
        assert_eq!(af3(42, 0, 1).terms().unwrap().step, 1);
        assert_eq!(
            fold_alu(AluOp::ISub, af(10, 4), af(2, 4)),
            Some(u(8)),
            "equal strides cancel"
        );
    }

    /// A 1-D row is the same lanes at every period, and one tag.
    #[test]
    fn one_d_rows_canonicalize_to_the_half_warp_period() {
        for p in [2, 4, 8, 16] {
            assert_eq!(afp(7, 3, 3 * p, p), af(7, 3), "p={p}");
        }
        assert_eq!(af(7, 3).terms(), Some(AffineTerms::linear(7, 3)));
        // tid.y·t + tid.x of a t-wide block is the linear thread index.
        let (tid_x, tid_y) = (afp(0, 1, 0, 4), afp(8, 0, 1, 4));
        assert_eq!(fold_imad(tid_y, u(4), tid_x), Some(af(32, 1)));
    }

    /// Periods must agree; only a 1-D row (or a uniform one) meets a
    /// narrower row at its period.
    #[test]
    fn mixed_periods_fold_only_through_one_d_rows() {
        let (x4, x8, x16) = (afp(0, 1, 0, 4), afp(0, 1, 0, 8), af3(0, 1, 0));
        assert_eq!(fold_alu(AluOp::IAdd, x4, x8), None);
        assert_eq!(fold_alu(AluOp::ISub, x16, x8), None);
        assert_eq!(fold_imad(x4, u(3), x16), None);
        assert_eq!(
            fold_alu(AluOp::IAdd, af(0x100, 4), x8),
            Some(afp(0x100, 5, 32, 8)),
            "1-D row re-expressed at p=8"
        );
        assert_eq!(
            fold_alu(AluOp::ISub, x4, af(0x100, 4)),
            Some(afp(
                0u32.wrapping_sub(0x100),
                3u32.wrapping_neg(),
                16u32.wrapping_neg(),
                4
            )),
        );
        assert_eq!(fold_alu(AluOp::IAdd, x4, u(9)), Some(afp(9, 1, 0, 4)));
    }

    /// The address chain the shape exists for, at every block width of
    /// Figure 4 that divides a half-warp: `tid.y·n + tid.x` scaled to bytes
    /// stays one shape, its runs `n` words apart.
    #[test]
    fn two_d_block_address_chain_folds() {
        for p in [4u32, 8, 16] {
            let rows_per_warp = 32 / p;
            let (tid_x, tid_y) = (afp(0, 1, 0, p), afp(3 * rows_per_warp, 0, 1, p));
            let idx = fold_imad(tid_y, u(256), tid_x).unwrap();
            assert_eq!(idx, afp(3 * rows_per_warp * 256, 1, 256, p));
            let byte = fold_alu(AluOp::Shl, idx, u(2)).unwrap();
            let addr = fold_alu(AluOp::IAdd, byte, u(0x1_0000)).unwrap();
            assert_eq!(addr, afp(0x1_0000 + 3 * rows_per_warp * 1024, 4, 1024, p));
            let row1_col1 = 0x1_0000 + (3 * rows_per_warp + 1) * 1024 + 4;
            assert_eq!(addr.lane(p as usize + 1), Some(Value(row1_col1)));
        }
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
        for shape in [
            af(0x20, 12),
            u(77),
            af3(4, 0, 1),
            afp(0, 1, 0, 8),
            afp(4, 0, 1, 8),
            afp(0, 1, 0, 4),
            afp(9, 4, 100, 2),
        ] {
            shape.expand_into(&mut row);
            assert_eq!(LaneRow::classify(&row, 32), shape);
        }
        row[13] = Value(1);
        assert_eq!(LaneRow::classify(&row, 32), LaneRow::Full);
        // 12-wide rows (Figure 4's 12×12 tile) have no period.
        let tid_x_12: Row = std::array::from_fn(|l| Value(l as u32 % 12));
        assert_eq!(LaneRow::classify(&tid_x_12, 32), LaneRow::Full);
    }

    /// Dead lanes constrain nothing: a row is classified by its live prefix.
    #[test]
    fn classify_reads_live_lanes_only() {
        // tid.x of a 40-thread block's second warp: 8 live lanes, zeros after.
        let row: Row = std::array::from_fn(|l| Value(if l < 8 { 32 + l as u32 } else { 0 }));
        assert_eq!(LaneRow::classify(&row, 32), LaneRow::Full);
        assert_eq!(LaneRow::classify(&row, 8), af(32, 1));
        // tid.x / tid.y of a 4×4 block: one half-warp of four runs.
        let live = |f: fn(u32) -> u32| -> Row {
            std::array::from_fn(|l| Value(if l < 16 { f(l as u32) } else { 0 }))
        };
        let (mut tx, ty) = (live(|l| l % 4), live(|l| l / 4));
        assert_eq!(LaneRow::classify(&tx, 16), afp(0, 1, 0, 4));
        assert_eq!(LaneRow::classify(&ty, 16), afp(0, 0, 1, 4));
        assert_eq!(LaneRow::classify(&ty, 1), u(0));
        // A broken live lane is still refused.
        tx[9] = Value(7);
        assert_eq!(LaneRow::classify(&tx, 16), LaneRow::Full);
    }

    #[test]
    fn walk_visits_the_live_prefix_in_lane_order() {
        for p in [2, 4, 8, 16] {
            let t = afp(100, 3, 50, p).terms().unwrap();
            for live in [0, 1, 4, 5, 16, 24, 31, 32] {
                let mut seen = Vec::new();
                for_each_affine_lane(t, live, |l, a| seen.push((l, a)));
                let want: Vec<_> = (0..live).map(|l| (l, t.lane(l as u32))).collect();
                assert_eq!(seen, want, "p={p} live={live}");
            }
        }
    }
}
