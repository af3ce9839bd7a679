//! The instruction set.
//!
//! A PTX-like virtual ISA sufficient to express every kernel in the Ryoo et
//! al. application suite. Instructions operate on 32-bit typeless registers
//! ([`crate::Value`]); the opcode determines interpretation. Control flow is
//! flat: branches target instruction indices (resolved from labels by the
//! [`crate::builder::KernelBuilder`]) and conditional branches carry their
//! *reconvergence point*, which the simulator's SIMD divergence stack uses
//! (the moral equivalent of the `SSY` instruction in real G80 SASS).

use crate::Value;

/// A register id. Before register allocation this is a *virtual* register
/// (unbounded); after allocation it indexes the per-thread physical register
/// file (`0..Kernel::regs_per_thread`).
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u32);

impl std::fmt::Debug for Reg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A branch target. During building this is a label id; after
/// `KernelBuilder::build` it is an instruction index into the kernel code.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct Label(pub u32);

/// Two-operand ALU opcodes executed on the streaming processors (SPs).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum AluOp {
    /// f32 add.
    FAdd,
    /// f32 subtract.
    FSub,
    /// f32 multiply.
    FMul,
    /// f32 minimum.
    FMin,
    /// f32 maximum.
    FMax,
    /// 32-bit integer add (wrapping).
    IAdd,
    /// 32-bit integer subtract (wrapping).
    ISub,
    /// 32-bit integer multiply, low 32 bits (wrapping). On G80 a 32-bit
    /// multiply is a multi-cycle operation built from 24-bit multiplies;
    /// the simulator charges it extra issue slots.
    IMul,
    /// Unsigned minimum.
    UMin,
    /// Unsigned maximum.
    UMax,
    /// Signed minimum.
    IMin,
    /// Signed maximum.
    IMax,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left (b masked to 0..31).
    Shl,
    /// Logical shift right.
    ShrU,
    /// Arithmetic shift right.
    ShrS,
    /// Rotate left (b masked to 0..31). NOT present on the G80 — RC5 must
    /// emulate it in four instructions (Section 5.1's "modulus-shift"
    /// discussion); exists here for the native-rotate ablation.
    Rotl,
}

impl AluOp {
    /// Every variant in declaration order: `ALL[x as usize] == x`.
    pub const ALL: [AluOp; 19] = [
        Self::FAdd,
        Self::FSub,
        Self::FMul,
        Self::FMin,
        Self::FMax,
        Self::IAdd,
        Self::ISub,
        Self::IMul,
        Self::UMin,
        Self::UMax,
        Self::IMin,
        Self::IMax,
        Self::And,
        Self::Or,
        Self::Xor,
        Self::Shl,
        Self::ShrU,
        Self::ShrS,
        Self::Rotl,
    ];
}

/// One-operand opcodes.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum UnOp {
    /// Register/immediate move.
    Mov,
    /// f32 negate.
    FNeg,
    /// f32 absolute value.
    FAbs,
    /// Bitwise not.
    Not,
    /// f32 -> i32 conversion (truncating, like `cvt.rzi.s32.f32`).
    CvtF2I,
    /// i32 -> f32 conversion.
    CvtI2F,
    /// f32 -> u32 conversion (truncating, clamped at 0).
    CvtF2U,
    /// u32 -> f32 conversion.
    CvtU2F,
    /// f32 floor (as f32).
    FFloor,
}

impl UnOp {
    /// Every variant in declaration order: `ALL[x as usize] == x`.
    pub const ALL: [UnOp; 9] = [
        Self::Mov,
        Self::FNeg,
        Self::FAbs,
        Self::Not,
        Self::CvtF2I,
        Self::CvtI2F,
        Self::CvtF2U,
        Self::CvtU2F,
        Self::FFloor,
    ];
}

/// Transcendental opcodes executed on the special functional units (SFUs).
///
/// The paper (Section 5.1) credits the SFUs with ~30% of the MRI speedup:
/// these execute in a handful of cycles versus hundreds of CPU cycles for
/// libm calls.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum SfuOp {
    /// Reciprocal, 1/x.
    Rcp,
    /// Reciprocal square root.
    Rsqrt,
    /// Square root (hardware computes rcp(rsqrt(x)); one SFU op here).
    Sqrt,
    /// Sine (radians).
    Sin,
    /// Cosine (radians).
    Cos,
    /// Base-2 exponential.
    Ex2,
    /// Base-2 logarithm.
    Lg2,
}

impl SfuOp {
    /// Every variant in declaration order: `ALL[x as usize] == x`.
    pub const ALL: [SfuOp; 7] = [
        Self::Rcp,
        Self::Rsqrt,
        Self::Sqrt,
        Self::Sin,
        Self::Cos,
        Self::Ex2,
        Self::Lg2,
    ];
}

/// Comparison operators for `SetP`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// Every variant in declaration order: `ALL[x as usize] == x`.
    pub const ALL: [CmpOp; 6] = [Self::Eq, Self::Ne, Self::Lt, Self::Le, Self::Gt, Self::Ge];
}

/// Operand interpretation for comparisons and selects.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Scalar {
    F32,
    U32,
    I32,
}

impl Scalar {
    /// Every variant in declaration order: `ALL[x as usize] == x`.
    pub const ALL: [Scalar; 3] = [Self::F32, Self::U32, Self::I32];
}

/// Memory spaces (paper Table 1).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Space {
    /// Off-chip DRAM, read/write, uncached, ~400-600 cycle latency. Subject
    /// to the half-warp coalescing rules.
    Global,
    /// 16 KB per-SM on-chip scratchpad, read/write, register-speed when
    /// bank-conflict free. 16 banks, word-interleaved.
    Shared,
    /// 64 KB read-only space with an 8 KB per-SM cache; single-cycle when all
    /// threads of a half-warp read the same address (broadcast).
    Const,
    /// Per-thread spill space, physically in DRAM (same cost as Global).
    Local,
    /// Read-only global memory fetched through the per-SM texture cache.
    Tex,
}

impl Space {
    /// Every variant in declaration order: `ALL[x as usize] == x`.
    pub const ALL: [Space; 5] = [
        Self::Global,
        Self::Shared,
        Self::Const,
        Self::Local,
        Self::Tex,
    ];
}

/// Atomic read-modify-write operations (integer, global memory; the G80
/// generation introduced these for compute capability 1.1).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum AtomOp {
    /// Integer add.
    Add,
    /// Unsigned minimum.
    Min,
    /// Unsigned maximum.
    Max,
    /// Exchange.
    Exch,
}

impl AtomOp {
    /// Every variant in declaration order: `ALL[x as usize] == x`.
    pub const ALL: [AtomOp; 4] = [Self::Add, Self::Min, Self::Max, Self::Exch];
}

/// Hardware special registers readable by every thread.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum SpecialReg {
    /// Thread index within the block, x/y/z.
    TidX,
    TidY,
    TidZ,
    /// Block dimensions.
    NtidX,
    NtidY,
    NtidZ,
    /// Block index within the grid, x/y.
    CtaidX,
    CtaidY,
    /// Grid dimensions.
    NctaidX,
    NctaidY,
}

impl SpecialReg {
    /// Every variant in declaration order: `ALL[x as usize] == x`.
    pub const ALL: [SpecialReg; 10] = [
        Self::TidX,
        Self::TidY,
        Self::TidZ,
        Self::NtidX,
        Self::NtidY,
        Self::NtidZ,
        Self::CtaidX,
        Self::CtaidY,
        Self::NctaidX,
        Self::NctaidY,
    ];
}

/// An instruction source operand.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Operand {
    /// A register.
    Reg(Reg),
    /// A 32-bit immediate (typeless, like the register file).
    Imm(Value),
    /// A kernel parameter slot. CUDA 0.8 passed parameters through shared
    /// memory and nvcc folded them into instructions; reading one costs no
    /// register here.
    Param(u16),
    /// A special register. The builder normally moves these into registers
    /// (as nvcc does) but they are also legal as direct operands.
    Special(SpecialReg),
}

impl Operand {
    /// Immediate f32 operand.
    pub fn imm_f(v: f32) -> Self {
        Operand::Imm(Value::from_f32(v))
    }
    /// Immediate u32 operand.
    pub fn imm_u(v: u32) -> Self {
        Operand::Imm(Value::from_u32(v))
    }
    /// Immediate i32 operand.
    pub fn imm_i(v: i32) -> Self {
        Operand::Imm(Value::from_i32(v))
    }
    /// Returns the immediate value if this operand is one.
    pub fn as_imm(&self) -> Option<Value> {
        match self {
            Operand::Imm(v) => Some(*v),
            _ => None,
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<f32> for Operand {
    fn from(v: f32) -> Self {
        Operand::imm_f(v)
    }
}

impl From<u32> for Operand {
    fn from(v: u32) -> Self {
        Operand::imm_u(v)
    }
}

impl From<i32> for Operand {
    fn from(v: i32) -> Self {
        Operand::imm_i(v)
    }
}

/// A branch predicate: branch taken when `reg != 0` (or `== 0` if negated).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct Pred {
    pub reg: Reg,
    pub negate: bool,
}

impl Pred {
    /// Predicate that is true when `reg` is nonzero.
    pub fn if_true(reg: Reg) -> Self {
        Pred { reg, negate: false }
    }
    /// Predicate that is true when `reg` is zero.
    pub fn if_false(reg: Reg) -> Self {
        Pred { reg, negate: true }
    }
}

/// A single instruction.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Inst {
    /// Two-source ALU operation: `dst = a op b`.
    Alu {
        op: AluOp,
        dst: Reg,
        a: Operand,
        b: Operand,
    },
    /// Fused multiply-add, f32: `dst = a * b + c`. The workhorse: one issue
    /// slot, two FLOPs.
    Ffma {
        dst: Reg,
        a: Operand,
        b: Operand,
        c: Operand,
    },
    /// Integer multiply-add: `dst = a * b + c` (wrapping).
    Imad {
        dst: Reg,
        a: Operand,
        b: Operand,
        c: Operand,
    },
    /// One-source operation.
    Un { op: UnOp, dst: Reg, a: Operand },
    /// Transcendental on the SFU pipe.
    Sfu { op: SfuOp, dst: Reg, a: Operand },
    /// Predicate set: `dst = (a cmp b) ? 1 : 0` under interpretation `ty`.
    SetP {
        op: CmpOp,
        ty: Scalar,
        dst: Reg,
        a: Operand,
        b: Operand,
    },
    /// Select: `dst = c != 0 ? a : b`.
    Sel {
        dst: Reg,
        c: Operand,
        a: Operand,
        b: Operand,
    },
    /// Load: `dst = [space][addr + off]`. Addresses are byte addresses; all
    /// accesses are 4-byte words.
    Ld {
        space: Space,
        dst: Reg,
        addr: Operand,
        off: i32,
    },
    /// Store: `[space][addr + off] = src`.
    St {
        space: Space,
        addr: Operand,
        off: i32,
        src: Operand,
    },
    /// Atomic read-modify-write on global or shared memory. `dst`, when
    /// present, receives the old value.
    Atom {
        op: AtomOp,
        space: Space,
        dst: Option<Reg>,
        addr: Operand,
        off: i32,
        src: Operand,
    },
    /// Branch to `target`. `reconv` is the reconvergence point used by the
    /// divergence stack when the branch diverges within a warp (ignored for
    /// unconditional branches, which cannot diverge).
    Bra {
        target: Label,
        reconv: Label,
        pred: Option<Pred>,
    },
    /// Block-wide barrier (`__syncthreads()`).
    Bar,
    /// Thread exit.
    Exit,
}

/// Coarse instruction classes used by the performance counters and by the
/// paper's instruction-mix analysis (Section 4).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum InstClass {
    /// f32 FMA (2 FLOPs, 1 slot).
    Fma,
    /// Other f32 ALU arithmetic.
    FAlu,
    /// Integer / bitwise / conversion / move / select / compare.
    IAlu,
    /// SFU transcendental.
    Sfu,
    LdGlobal,
    StGlobal,
    LdShared,
    StShared,
    LdConst,
    LdTex,
    LdLocal,
    StLocal,
    Atomic,
    Branch,
    Barrier,
    Exit,
}

impl InstClass {
    /// Number of variants, for dense counter arrays.
    pub const COUNT: usize = 16;

    /// Every variant, indexed by its [`InstClass::index`].
    pub const ALL: [InstClass; InstClass::COUNT] = [
        InstClass::Fma,
        InstClass::FAlu,
        InstClass::IAlu,
        InstClass::Sfu,
        InstClass::LdGlobal,
        InstClass::StGlobal,
        InstClass::LdShared,
        InstClass::StShared,
        InstClass::LdConst,
        InstClass::LdTex,
        InstClass::LdLocal,
        InstClass::StLocal,
        InstClass::Atomic,
        InstClass::Branch,
        InstClass::Barrier,
        InstClass::Exit,
    ];

    /// Dense index of this class (`ALL[c.index()] == c`).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

impl Inst {
    /// The counter class of this instruction.
    pub fn class(&self) -> InstClass {
        match self {
            Inst::Ffma { .. } => InstClass::Fma,
            Inst::Alu { op, .. } => match op {
                AluOp::FAdd | AluOp::FSub | AluOp::FMul | AluOp::FMin | AluOp::FMax => {
                    InstClass::FAlu
                }
                _ => InstClass::IAlu,
            },
            Inst::Imad { .. } | Inst::Un { .. } | Inst::SetP { .. } | Inst::Sel { .. } => {
                InstClass::IAlu
            }
            Inst::Sfu { .. } => InstClass::Sfu,
            Inst::Ld { space, .. } => match space {
                Space::Global => InstClass::LdGlobal,
                Space::Shared => InstClass::LdShared,
                Space::Const => InstClass::LdConst,
                Space::Tex => InstClass::LdTex,
                Space::Local => InstClass::LdLocal,
            },
            Inst::St { space, .. } => match space {
                Space::Shared => InstClass::StShared,
                Space::Local => InstClass::StLocal,
                _ => InstClass::StGlobal,
            },
            Inst::Atom { .. } => InstClass::Atomic,
            Inst::Bra { .. } => InstClass::Branch,
            Inst::Bar => InstClass::Barrier,
            Inst::Exit => InstClass::Exit,
        }
    }

    /// Floating-point operations contributed by one thread executing this
    /// instruction (FMA counts as 2, matching how the paper computes GFLOPS).
    pub fn flops(&self) -> u32 {
        match self.class() {
            InstClass::Fma => 2,
            InstClass::FAlu | InstClass::Sfu => 1,
            _ => 0,
        }
    }

    /// The register written by this instruction, if any.
    pub fn def(&self) -> Option<Reg> {
        match self {
            Inst::Alu { dst, .. }
            | Inst::Ffma { dst, .. }
            | Inst::Imad { dst, .. }
            | Inst::Un { dst, .. }
            | Inst::Sfu { dst, .. }
            | Inst::SetP { dst, .. }
            | Inst::Sel { dst, .. }
            | Inst::Ld { dst, .. } => Some(*dst),
            Inst::Atom { dst, .. } => *dst,
            _ => None,
        }
    }

    /// Invokes `f` for every source operand.
    pub fn for_each_use(&self, mut f: impl FnMut(&Operand)) {
        match self {
            Inst::Alu { a, b, .. } | Inst::SetP { a, b, .. } => {
                f(a);
                f(b);
            }
            Inst::Ffma { a, b, c, .. } | Inst::Imad { a, b, c, .. } => {
                f(a);
                f(b);
                f(c);
            }
            Inst::Sel { c, a, b, .. } => {
                f(c);
                f(a);
                f(b);
            }
            Inst::Un { a, .. } | Inst::Sfu { a, .. } => f(a),
            Inst::Ld { addr, .. } => f(addr),
            Inst::St { addr, src, .. } => {
                f(addr);
                f(src);
            }
            Inst::Atom { addr, src, .. } => {
                f(addr);
                f(src);
            }
            Inst::Bra { pred, .. } => {
                if let Some(p) = pred {
                    f(&Operand::Reg(p.reg));
                }
            }
            Inst::Bar | Inst::Exit => {}
        }
    }

    /// Invokes `f` with a mutable reference to every source operand
    /// (predicates excluded: they must stay registers).
    pub fn for_each_use_mut(&mut self, mut f: impl FnMut(&mut Operand)) {
        match self {
            Inst::Alu { a, b, .. } | Inst::SetP { a, b, .. } => {
                f(a);
                f(b);
            }
            Inst::Ffma { a, b, c, .. } | Inst::Imad { a, b, c, .. } => {
                f(a);
                f(b);
                f(c);
            }
            Inst::Sel { c, a, b, .. } => {
                f(c);
                f(a);
                f(b);
            }
            Inst::Un { a, .. } | Inst::Sfu { a, .. } => f(a),
            Inst::Ld { addr, .. } => f(addr),
            Inst::St { addr, src, .. } => {
                f(addr);
                f(src);
            }
            Inst::Atom { addr, src, .. } => {
                f(addr);
                f(src);
            }
            Inst::Bra { .. } | Inst::Bar | Inst::Exit => {}
        }
    }

    /// Registers read by this instruction (including branch predicates).
    pub fn uses(&self) -> Vec<Reg> {
        let mut v = Vec::with_capacity(3);
        self.for_each_use(|op| {
            if let Operand::Reg(r) = op {
                v.push(*r);
            }
        });
        v
    }

    /// True if this instruction has no side effects beyond writing `def()`
    /// (i.e. it is safe to delete when the destination is dead, and safe to
    /// subject to CSE).
    pub fn is_pure(&self) -> bool {
        matches!(
            self,
            Inst::Alu { .. }
                | Inst::Ffma { .. }
                | Inst::Imad { .. }
                | Inst::Un { .. }
                | Inst::Sfu { .. }
                | Inst::SetP { .. }
                | Inst::Sel { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: u32) -> Reg {
        Reg(n)
    }

    #[test]
    fn class_and_flops() {
        let fma = Inst::Ffma {
            dst: r(0),
            a: r(1).into(),
            b: r(2).into(),
            c: r(0).into(),
        };
        assert_eq!(fma.class(), InstClass::Fma);
        assert_eq!(fma.flops(), 2);

        let fadd = Inst::Alu {
            op: AluOp::FAdd,
            dst: r(0),
            a: r(1).into(),
            b: Operand::imm_f(1.0),
        };
        assert_eq!(fadd.class(), InstClass::FAlu);
        assert_eq!(fadd.flops(), 1);

        let iadd = Inst::Alu {
            op: AluOp::IAdd,
            dst: r(0),
            a: r(1).into(),
            b: Operand::imm_u(4),
        };
        assert_eq!(iadd.class(), InstClass::IAlu);
        assert_eq!(iadd.flops(), 0);

        let ld = Inst::Ld {
            space: Space::Global,
            dst: r(0),
            addr: r(1).into(),
            off: 0,
        };
        assert_eq!(ld.class(), InstClass::LdGlobal);
    }

    #[test]
    fn def_and_uses() {
        let fma = Inst::Ffma {
            dst: r(0),
            a: r(1).into(),
            b: r(2).into(),
            c: r(0).into(),
        };
        assert_eq!(fma.def(), Some(r(0)));
        assert_eq!(fma.uses(), vec![r(1), r(2), r(0)]);

        let st = Inst::St {
            space: Space::Global,
            addr: r(3).into(),
            off: 4,
            src: r(5).into(),
        };
        assert_eq!(st.def(), None);
        assert_eq!(st.uses(), vec![r(3), r(5)]);

        let bra = Inst::Bra {
            target: Label(0),
            reconv: Label(0),
            pred: Some(Pred::if_true(r(7))),
        };
        assert_eq!(bra.uses(), vec![r(7)]);
    }

    #[test]
    fn purity() {
        let sel = Inst::Sel {
            dst: r(0),
            c: r(1).into(),
            a: r(2).into(),
            b: r(3).into(),
        };
        assert!(sel.is_pure());
        let ld = Inst::Ld {
            space: Space::Shared,
            dst: r(0),
            addr: r(1).into(),
            off: 0,
        };
        assert!(!ld.is_pure());
        assert!(!Inst::Bar.is_pure());
    }
}
