//! Structured kernel construction.
//!
//! [`KernelBuilder`] plays the role of CUDA C + nvcc: kernels are written as
//! structured Rust code (straight-line ops, `if_`, `for_range`, `do_while`)
//! and lowered to the flat ISA with well-formed reconvergence information,
//! then run through the optimizer passes and the register allocator.
//!
//! Loop unrolling is performed here, at construction time, exactly as
//! `#pragma unroll` directs nvcc: the body closure is re-invoked with the
//! iteration index as a constant operand, and the downstream constant-folding
//! pass then deletes the induction arithmetic (paper Section 4.3: "the
//! offsets are now constants").

use crate::inst::{
    AluOp, AtomOp, CmpOp, Inst, Label, Operand, Pred, Reg, Scalar, SfuOp, Space, SpecialReg, UnOp,
};
use crate::kernel::Kernel;
use crate::passes::{self, OptLevel};
use crate::regalloc;
use std::collections::HashMap;

/// Loop unrolling directive for [`KernelBuilder::for_range`].
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Unroll {
    /// Keep the loop rolled (branch + induction variable).
    None,
    /// Fully unroll; requires immediate bounds.
    Full,
    /// Unroll by a factor; requires immediate bounds and a trip count
    /// divisible by the factor.
    By(u32),
}

/// Options controlling [`KernelBuilder::build_with`].
#[derive(Copy, Clone, Debug)]
pub struct BuildOptions {
    /// Optimization level for the classical passes.
    pub opt: OptLevel,
    /// Register cap (the `-maxrregcount` analogue). Intervals that do not fit
    /// are spilled to Local memory.
    pub max_regs: Option<u32>,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            opt: OptLevel::O2,
            max_regs: None,
        }
    }
}

/// Builder for one kernel.
pub struct KernelBuilder {
    name: String,
    code: Vec<Inst>,
    labels: Vec<Option<u32>>,
    next_reg: u32,
    num_params: u16,
    smem_bytes: u32,
    special_cache: HashMap<SpecialReg, Reg>,
}

impl KernelBuilder {
    /// Starts a new kernel.
    pub fn new(name: &str) -> Self {
        KernelBuilder {
            name: name.to_string(),
            code: Vec::new(),
            labels: Vec::new(),
            next_reg: 0,
            num_params: 0,
            smem_bytes: 0,
            special_cache: HashMap::new(),
        }
    }

    // ---- resources -------------------------------------------------------

    /// Allocates a fresh virtual register.
    pub fn vreg(&mut self) -> Reg {
        let r = Reg(self.next_reg);
        self.next_reg += 1;
        r
    }

    /// Declares the next kernel parameter, returning its operand. Parameters
    /// are bound positionally at launch.
    pub fn param(&mut self) -> Operand {
        let i = self.num_params;
        self.num_params += 1;
        Operand::Param(i)
    }

    /// Statically allocates `words` 4-byte words of shared memory, returning
    /// the base *byte* address within the block's shared memory window.
    pub fn shared_alloc(&mut self, words: u32) -> u32 {
        let base = self.smem_bytes;
        self.smem_bytes += words * 4;
        base
    }

    // ---- special registers ----------------------------------------------

    /// Reads a special register into a register, reusing a previous read
    /// when it is guaranteed to dominate this point. The cache is cleared at
    /// every control-flow boundary ([`KernelBuilder::bind`] and branch
    /// emission): a read first performed inside an `if_`/loop body is only
    /// written by the lanes that entered it, so it must not satisfy reads
    /// outside that scope.
    pub fn special(&mut self, s: SpecialReg) -> Reg {
        if let Some(&r) = self.special_cache.get(&s) {
            return r;
        }
        let r = self.un(UnOp::Mov, Operand::Special(s));
        self.special_cache.insert(s, r);
        r
    }

    /// threadIdx.x
    pub fn tid_x(&mut self) -> Reg {
        self.special(SpecialReg::TidX)
    }
    /// threadIdx.y
    pub fn tid_y(&mut self) -> Reg {
        self.special(SpecialReg::TidY)
    }
    /// blockIdx.x
    pub fn ctaid_x(&mut self) -> Reg {
        self.special(SpecialReg::CtaidX)
    }
    /// blockIdx.y
    pub fn ctaid_y(&mut self) -> Reg {
        self.special(SpecialReg::CtaidY)
    }
    /// blockDim.x
    pub fn ntid_x(&mut self) -> Reg {
        self.special(SpecialReg::NtidX)
    }

    // ---- raw emission ----------------------------------------------------

    /// Appends a raw instruction. Raw branches end the basic block, so the
    /// special-register cache is cleared here too (covering callers that
    /// bypass [`KernelBuilder::bra`]/[`KernelBuilder::bra_if`]).
    pub fn emit(&mut self, inst: Inst) {
        if matches!(inst, Inst::Bra { .. }) {
            self.special_cache.clear();
        }
        self.code.push(inst);
    }

    /// Two-source ALU op into an explicit destination (loop-carried values).
    pub fn alu_to(&mut self, op: AluOp, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) {
        self.emit(Inst::Alu {
            op,
            dst,
            a: a.into(),
            b: b.into(),
        });
    }

    /// Integer add into an explicit destination (pointer bumps).
    pub fn iadd_to(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) {
        self.alu_to(AluOp::IAdd, dst, a, b);
    }

    /// f32 add into an explicit destination.
    pub fn fadd_to(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) {
        self.alu_to(AluOp::FAdd, dst, a, b);
    }

    /// Two-source ALU op into a fresh register.
    pub fn alu(&mut self, op: AluOp, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        let dst = self.vreg();
        self.alu_to(op, dst, a, b);
        dst
    }

    /// One-source op into a fresh register.
    pub fn un(&mut self, op: UnOp, a: impl Into<Operand>) -> Reg {
        let dst = self.vreg();
        self.emit(Inst::Un {
            op,
            dst,
            a: a.into(),
        });
        dst
    }

    // Convenience arithmetic (fresh destination).

    /// f32 add.
    pub fn fadd(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.alu(AluOp::FAdd, a, b)
    }
    /// f32 subtract.
    pub fn fsub(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.alu(AluOp::FSub, a, b)
    }
    /// f32 multiply.
    pub fn fmul(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.alu(AluOp::FMul, a, b)
    }
    /// Integer add.
    pub fn iadd(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.alu(AluOp::IAdd, a, b)
    }
    /// Integer subtract.
    pub fn isub(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.alu(AluOp::ISub, a, b)
    }
    /// Integer multiply (low 32 bits).
    pub fn imul(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.alu(AluOp::IMul, a, b)
    }
    /// Shift left.
    pub fn shl(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.alu(AluOp::Shl, a, b)
    }
    /// Logical shift right.
    pub fn shr(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.alu(AluOp::ShrU, a, b)
    }
    /// Bitwise and.
    pub fn and(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.alu(AluOp::And, a, b)
    }
    /// Bitwise or.
    pub fn or(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.alu(AluOp::Or, a, b)
    }
    /// Bitwise xor.
    pub fn xor(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.alu(AluOp::Xor, a, b)
    }

    /// f32 fused multiply-add into a fresh register: `a * b + c`.
    pub fn ffma(
        &mut self,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
        c: impl Into<Operand>,
    ) -> Reg {
        let dst = self.vreg();
        self.ffma_to(dst, a, b, c);
        dst
    }

    /// f32 FMA into an explicit destination (for accumulators).
    pub fn ffma_to(
        &mut self,
        dst: Reg,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
        c: impl Into<Operand>,
    ) {
        self.emit(Inst::Ffma {
            dst,
            a: a.into(),
            b: b.into(),
            c: c.into(),
        });
    }

    /// Integer multiply-add into a fresh register.
    pub fn imad(
        &mut self,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
        c: impl Into<Operand>,
    ) -> Reg {
        let dst = self.vreg();
        self.emit(Inst::Imad {
            dst,
            a: a.into(),
            b: b.into(),
            c: c.into(),
        });
        dst
    }

    /// Move into a fresh register.
    pub fn mov(&mut self, a: impl Into<Operand>) -> Reg {
        self.un(UnOp::Mov, a)
    }

    /// Move into an explicit destination.
    pub fn mov_to(&mut self, dst: Reg, a: impl Into<Operand>) {
        self.emit(Inst::Un {
            op: UnOp::Mov,
            dst,
            a: a.into(),
        });
    }

    /// SFU transcendental into a fresh register.
    pub fn sfu(&mut self, op: SfuOp, a: impl Into<Operand>) -> Reg {
        let dst = self.vreg();
        self.emit(Inst::Sfu {
            op,
            dst,
            a: a.into(),
        });
        dst
    }

    /// Comparison producing a fresh predicate register.
    pub fn setp(
        &mut self,
        op: CmpOp,
        ty: Scalar,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
    ) -> Reg {
        let dst = self.vreg();
        self.emit(Inst::SetP {
            op,
            ty,
            dst,
            a: a.into(),
            b: b.into(),
        });
        dst
    }

    /// Select into a fresh register.
    pub fn sel(
        &mut self,
        c: impl Into<Operand>,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
    ) -> Reg {
        let dst = self.vreg();
        self.emit(Inst::Sel {
            dst,
            c: c.into(),
            a: a.into(),
            b: b.into(),
        });
        dst
    }

    // ---- memory ----------------------------------------------------------

    /// Load into a fresh register.
    pub fn ld(&mut self, space: Space, addr: impl Into<Operand>, off: i32) -> Reg {
        let dst = self.vreg();
        self.emit(Inst::Ld {
            space,
            dst,
            addr: addr.into(),
            off,
        });
        dst
    }

    /// Load into an explicit destination.
    pub fn ld_to(&mut self, space: Space, dst: Reg, addr: impl Into<Operand>, off: i32) {
        self.emit(Inst::Ld {
            space,
            dst,
            addr: addr.into(),
            off,
        });
    }

    /// Store.
    pub fn st(
        &mut self,
        space: Space,
        addr: impl Into<Operand>,
        off: i32,
        src: impl Into<Operand>,
    ) {
        self.emit(Inst::St {
            space,
            addr: addr.into(),
            off,
            src: src.into(),
        });
    }

    /// Global load.
    pub fn ld_global(&mut self, addr: impl Into<Operand>, off: i32) -> Reg {
        self.ld(Space::Global, addr, off)
    }
    /// Global store.
    pub fn st_global(&mut self, addr: impl Into<Operand>, off: i32, src: impl Into<Operand>) {
        self.st(Space::Global, addr, off, src)
    }
    /// Shared-memory load.
    pub fn ld_shared(&mut self, addr: impl Into<Operand>, off: i32) -> Reg {
        self.ld(Space::Shared, addr, off)
    }
    /// Shared-memory store.
    pub fn st_shared(&mut self, addr: impl Into<Operand>, off: i32, src: impl Into<Operand>) {
        self.st(Space::Shared, addr, off, src)
    }
    /// Constant-memory load.
    pub fn ld_const(&mut self, addr: impl Into<Operand>, off: i32) -> Reg {
        self.ld(Space::Const, addr, off)
    }
    /// Texture fetch.
    pub fn ld_tex(&mut self, addr: impl Into<Operand>, off: i32) -> Reg {
        self.ld(Space::Tex, addr, off)
    }

    /// Atomic op; returns the register receiving the old value.
    pub fn atom(
        &mut self,
        op: AtomOp,
        space: Space,
        addr: impl Into<Operand>,
        off: i32,
        src: impl Into<Operand>,
    ) -> Reg {
        let dst = self.vreg();
        self.emit(Inst::Atom {
            op,
            space,
            dst: Some(dst),
            addr: addr.into(),
            off,
            src: src.into(),
        });
        dst
    }

    /// Block-wide barrier (`__syncthreads()`).
    pub fn bar(&mut self) {
        self.emit(Inst::Bar);
    }

    // ---- labels and control flow ------------------------------------------

    /// Creates an unbound label.
    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label((self.labels.len() - 1) as u32)
    }

    /// Binds a label to the current position. Control-flow join points end
    /// the current basic block, so the special-register read cache is
    /// cleared (see [`KernelBuilder::special`]).
    pub fn bind(&mut self, l: Label) {
        assert!(
            self.labels[l.0 as usize].is_none(),
            "label {l:?} bound twice"
        );
        self.labels[l.0 as usize] = Some(self.code.len() as u32);
        self.special_cache.clear();
    }

    /// Unconditional branch. Ends the basic block: the special-register
    /// cache is cleared.
    pub fn bra(&mut self, target: Label) {
        self.emit(Inst::Bra {
            target,
            reconv: target,
            pred: None,
        });
        self.special_cache.clear();
    }

    /// Conditional branch with explicit reconvergence point. Ends the basic
    /// block: the special-register cache is cleared.
    pub fn bra_if(&mut self, pred: Pred, target: Label, reconv: Label) {
        self.emit(Inst::Bra {
            target,
            reconv,
            pred: Some(pred),
        });
        self.special_cache.clear();
    }

    /// `if pred { then }` — threads failing the predicate jump to the end.
    pub fn if_(&mut self, pred: Pred, then_body: impl FnOnce(&mut Self)) {
        let endif = self.new_label();
        self.bra_if(
            Pred {
                reg: pred.reg,
                negate: !pred.negate,
            },
            endif,
            endif,
        );
        then_body(self);
        self.bind(endif);
    }

    /// `if pred { then } else { other }`.
    pub fn if_else(
        &mut self,
        pred: Pred,
        then_body: impl FnOnce(&mut Self),
        else_body: impl FnOnce(&mut Self),
    ) {
        let else_l = self.new_label();
        let endif = self.new_label();
        self.bra_if(
            Pred {
                reg: pred.reg,
                negate: !pred.negate,
            },
            else_l,
            endif,
        );
        then_body(self);
        self.bra(endif);
        self.bind(else_l);
        else_body(self);
        self.bind(endif);
    }

    /// Counted loop `for (i = start; i < end; i += step) body(i)`.
    ///
    /// The comparison is unsigned. With [`Unroll::Full`] or [`Unroll::By`],
    /// `start` and `end` must be immediates; the body closure receives the
    /// iteration index as an immediate operand (or `counter + j*step`
    /// registers for the inner repetitions of a partial unroll).
    pub fn for_range(
        &mut self,
        start: impl Into<Operand>,
        end: impl Into<Operand>,
        step: u32,
        unroll: Unroll,
        mut body: impl FnMut(&mut Self, Operand),
    ) {
        assert!(step > 0, "loop step must be positive");
        let start = start.into();
        let end = end.into();
        match unroll {
            Unroll::Full => {
                let s = start
                    .as_imm()
                    .expect("full unroll needs imm start")
                    .as_u32();
                let e = end.as_imm().expect("full unroll needs imm end").as_u32();
                let mut i = s;
                while i < e {
                    body(self, Operand::imm_u(i));
                    i += step;
                }
            }
            Unroll::By(f) => {
                assert!(f > 0, "unroll factor must be positive");
                let s = start
                    .as_imm()
                    .expect("partial unroll needs imm start")
                    .as_u32();
                let e = end.as_imm().expect("partial unroll needs imm end").as_u32();
                let trips = (e.saturating_sub(s)).div_ceil(step);
                assert!(
                    trips % f == 0,
                    "trip count {trips} not divisible by unroll factor {f}"
                );
                let big_step = step * f;
                self.rolled_loop(Operand::imm_u(s), Operand::imm_u(e), big_step, |b, i| {
                    for j in 0..f {
                        let idx = if j == 0 {
                            i
                        } else {
                            Operand::Reg(b.iadd(i, Operand::imm_u(j * step)))
                        };
                        body(b, idx);
                    }
                });
            }
            Unroll::None => {
                self.rolled_loop(start, end, step, |b, i| body(b, i));
            }
        }
    }

    fn rolled_loop(
        &mut self,
        start: Operand,
        end: Operand,
        step: u32,
        mut body: impl FnMut(&mut Self, Operand),
    ) {
        let i = self.mov(start);
        let head = self.new_label();
        let exit = self.new_label();
        self.bind(head);
        let done = self.setp(CmpOp::Ge, Scalar::U32, i, end);
        self.bra_if(Pred::if_true(done), exit, exit);
        body(self, Operand::Reg(i));
        self.alu_to(AluOp::IAdd, i, i, Operand::imm_u(step));
        self.bra(head);
        self.bind(exit);
    }

    /// Post-tested loop: runs `body` at least once, repeating while the
    /// returned predicate holds.
    pub fn do_while(&mut self, mut body: impl FnMut(&mut Self) -> Pred) {
        let head = self.new_label();
        let exit = self.new_label();
        self.bind(head);
        let p = body(self);
        self.bra_if(p, head, exit);
        self.bind(exit);
    }

    // ---- finalization ------------------------------------------------------

    /// Builds with default options (O2, no register cap).
    pub fn build(self) -> Kernel {
        self.build_with(BuildOptions::default())
    }

    /// Resolves labels, runs the optimizer pipeline and the register
    /// allocator, and returns the finished kernel.
    pub fn build_with(mut self, opts: BuildOptions) -> Kernel {
        // Terminate.
        if !matches!(self.code.last(), Some(Inst::Exit)) {
            self.emit(Inst::Exit);
        }
        // Resolve labels to instruction indices. Labels bound past the end
        // point at the final Exit.
        let resolve = |l: Label, labels: &[Option<u32>], len: u32| -> Label {
            let idx = labels[l.0 as usize].expect("unbound label");
            Label(idx.min(len - 1))
        };
        let len = self.code.len() as u32;
        for inst in &mut self.code {
            if let Inst::Bra { target, reconv, .. } = inst {
                *target = resolve(*target, &self.labels, len);
                *reconv = resolve(*reconv, &self.labels, len);
            }
        }

        let mut kernel = Kernel {
            name: self.name,
            code: self.code,
            regs_per_thread: 0,
            smem_bytes: self.smem_bytes,
            num_params: self.num_params,
        };
        kernel
            .validate()
            .unwrap_or_else(|e| panic!("invalid kernel {}: {e}", kernel.name));

        passes::run(opts.opt, &mut kernel.code);
        kernel.regs_per_thread = regalloc::allocate(&mut kernel.code, opts.max_regs);
        kernel
            .validate()
            .unwrap_or_else(|e| panic!("kernel {} invalid after passes: {e}", kernel.name));
        kernel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::InstClass;

    #[test]
    fn straight_line_builds() {
        let mut b = KernelBuilder::new("t");
        let x = b.param();
        let t = b.tid_x();
        let addr = b.shl(t, 2u32);
        let addr = b.iadd(addr, x);
        let v = b.ld_global(addr, 0);
        let v2 = b.fmul(v, 2.0f32);
        b.st_global(addr, 0, v2);
        let k = b.build();
        assert!(k.validate().is_ok());
        assert!(k.regs_per_thread >= 1);
        assert_eq!(k.num_params, 1);
        assert_eq!(k.static_mix().get(InstClass::LdGlobal), 1);
        assert_eq!(k.static_mix().get(InstClass::StGlobal), 1);
    }

    #[test]
    fn special_reads_are_cached_within_a_block() {
        let mut b = KernelBuilder::new("t");
        let t1 = b.tid_x();
        let t2 = b.tid_x();
        assert_eq!(t1, t2);
        let t3 = b.tid_y();
        assert_ne!(t1, t3);
    }

    #[test]
    fn special_cache_does_not_leak_across_control_flow() {
        // A special register first read inside an if_ body must NOT satisfy
        // a read after the join: inactive lanes never executed the mov.
        let mut b = KernelBuilder::new("t");
        let p = b.mov(Operand::imm_u(1));
        let inner = std::cell::Cell::new(Reg(0));
        b.if_(Pred::if_true(p), |b| {
            inner.set(b.tid_y());
        });
        let outer = b.tid_y();
        assert_ne!(inner.get(), outer, "cached special leaked out of if_ scope");
    }

    #[test]
    fn full_unroll_has_no_branches() {
        let mut b = KernelBuilder::new("t");
        let t = b.tid_x();
        let acc = b.un(UnOp::CvtU2F, t); // non-constant start: FMAs survive
        b.for_range(0u32, 8u32, 1, Unroll::Full, |b, i| {
            let fi = b.un(UnOp::CvtU2F, i);
            b.ffma_to(acc, fi, 2.0f32, acc);
        });
        b.st_global(Operand::imm_u(0), 0, acc);
        let k = b.build();
        assert_eq!(k.static_mix().get(InstClass::Branch), 0);
        assert_eq!(k.static_mix().get(InstClass::Fma), 8);
    }

    #[test]
    fn rolled_loop_shape() {
        let mut b = KernelBuilder::new("t");
        let acc = b.mov(Operand::imm_f(0.0));
        b.for_range(0u32, 8u32, 1, Unroll::None, |b, i| {
            let fi = b.un(UnOp::CvtU2F, i);
            b.ffma_to(acc, fi, 2.0f32, acc);
        });
        b.st_global(Operand::imm_u(0), 0, acc);
        let k = b.build();
        // one conditional exit branch + one back edge
        assert_eq!(k.static_mix().get(InstClass::Branch), 2);
        assert_eq!(k.static_mix().get(InstClass::Fma), 1);
    }

    #[test]
    fn partial_unroll_replicates_body() {
        let mut b = KernelBuilder::new("t");
        let acc = b.mov(Operand::imm_f(0.0));
        b.for_range(0u32, 16u32, 1, Unroll::By(4), |b, i| {
            let fi = b.un(UnOp::CvtU2F, i);
            b.ffma_to(acc, fi, 2.0f32, acc);
        });
        b.st_global(Operand::imm_u(0), 0, acc);
        let k = b.build();
        assert_eq!(k.static_mix().get(InstClass::Fma), 4);
        assert_eq!(k.static_mix().get(InstClass::Branch), 2);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn partial_unroll_rejects_ragged_trip() {
        let mut b = KernelBuilder::new("t");
        b.for_range(0u32, 10u32, 1, Unroll::By(4), |_, _| {});
    }

    #[test]
    fn if_else_reconvergence_is_forward() {
        let mut b = KernelBuilder::new("t");
        let t = b.tid_x();
        let p = b.setp(CmpOp::Lt, Scalar::U32, t, 16u32);
        let out = b.vreg();
        b.if_else(
            Pred::if_true(p),
            |b| b.mov_to(out, Operand::imm_f(1.0)),
            |b| b.mov_to(out, Operand::imm_f(2.0)),
        );
        b.st_global(Operand::imm_u(0), 0, out);
        let k = b.build();
        assert!(k.validate().is_ok());
    }

    #[test]
    fn shared_alloc_accumulates() {
        let mut b = KernelBuilder::new("t");
        let a = b.shared_alloc(256);
        let c = b.shared_alloc(256);
        assert_eq!(a, 0);
        assert_eq!(c, 1024);
        assert_eq!(b.build().smem_bytes, 2048);
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn double_bind_panics() {
        let mut b = KernelBuilder::new("t");
        let l = b.new_label();
        b.bind(l);
        b.bind(l);
    }

    #[test]
    fn do_while_builds() {
        let mut b = KernelBuilder::new("t");
        let i = b.mov(Operand::imm_u(0));
        b.do_while(|b| {
            b.alu_to(AluOp::IAdd, i, i, Operand::imm_u(1));
            let p = b.setp(CmpOp::Lt, Scalar::U32, i, 10u32);
            Pred::if_true(p)
        });
        b.st_global(Operand::imm_u(0), 0, i);
        let k = b.build();
        assert!(k.validate().is_ok());
    }
}
