//! Straight-line region extraction and lowering for the compiled engine.
//!
//! **No product caller.** Nothing in the simulator executes this lowering.
//! The module and its `pub use` stay only because `benchmark/src/probes.rs`
//! times [`CompiledKernel::new`] for the `isa.compile_us` layer metric; a
//! change to the benchmark can delete the probe and this module together.
//! The text below describes the engine tier it once fed.
//!
//! The predecoded engine still pays an `Inst` dispatch, operand-row
//! materialization, and per-arm bookkeeping for every issued instruction.
//! This pass lowers each kernel — once per process, cached alongside its
//! [`DecodedKernel`](crate::decode::DecodedKernel) in the simulator's
//! content-hash registry — into *regions*: maximal straight-line runs of
//! instructions whose functional effects touch only warp-private registers
//! and block shared memory. The simulator executes a whole region's
//! functional effects in one pre-bound pass over the warp when the region's
//! first instruction issues, then charges the interior instructions pure
//! *timing* steps with no interpretation at all.
//!
//! # What may live inside a region
//!
//! * every pure op ([`Inst::is_pure`]): ALU, FMA, IMAD, unary, SFU, SetP,
//!   Sel — side effects are exactly one register row write;
//! * shared-memory loads and stores. These are legal because (a) regions
//!   never cross a barrier, and under the CUDA consistency rules the
//!   simulator models (barriers separate shared-memory producers from
//!   consumers) no other warp's conflicting access can be ordered inside
//!   the region's issue window, and (b) their timing contribution — the
//!   bank-conflict degree — is a pure function of the warp's own address
//!   registers, so it can be precomputed at region entry and replayed by
//!   the per-instruction timing step.
//!
//! Everything else (global/const/tex/local memory, atomics, branches,
//! barriers, exits) breaks a region and stays on the interpreted path.
//!
//! # Region boundaries are control-flow safe
//!
//! A region must only ever be *entered* at its first instruction. Control
//! enters the instruction stream at pc 0, at branch targets, at
//! reconvergence points, and at the fall-through successor of every
//! terminator — exactly the pcs the divergence stack ([`Warp::take_branch`]
//! pushes frames at `target`/`next_pc` and parks the reconvergence frame at
//! `reconv`). All of those are *leaders* here, and a region never spans a
//! leader, so a warp that issues a region's first instruction will issue
//! every instruction of the region, in order, under a constant active mask
//! (no branch, barrier, or exit can intervene).
//!
//! [`Warp::take_branch`]: ../../g80_sim/warp/struct.Warp.html

use crate::inst::{AluOp, CmpOp, Inst, Operand, Scalar, SfuOp, Space, SpecialReg, UnOp};
use crate::kernel::Kernel;
use crate::Value;

/// Regions shorter than this are not worth the entry bookkeeping; their
/// instructions stay on the interpreted path.
pub(crate) const MIN_REGION_LEN: usize = 2;

/// A pre-resolved source operand. Register sources carry the row base index
/// (`reg * 32`) so the evaluator indexes the flat register file directly.
#[derive(Copy, Clone, Debug)]
pub enum Src {
    /// Register row base: `regs[base + lane]`.
    Reg(u32),
    Imm(Value),
    Param(u16),
    Special(SpecialReg),
}

fn lower_src(op: Operand) -> Src {
    match op {
        Operand::Reg(r) => Src::Reg(r.0 * 32),
        Operand::Imm(v) => Src::Imm(v),
        Operand::Param(i) => Src::Param(i),
        Operand::Special(s) => Src::Special(s),
    }
}

/// One lowered instruction: the flat register-machine bytecode the warp
/// evaluator executes. Destinations are row base indices like [`Src::Reg`].
#[derive(Copy, Clone, Debug)]
pub enum CompiledOp {
    Alu {
        op: AluOp,
        dst: u32,
        a: Src,
        b: Src,
    },
    Ffma {
        dst: u32,
        a: Src,
        b: Src,
        c: Src,
    },
    Imad {
        dst: u32,
        a: Src,
        b: Src,
        c: Src,
    },
    Un {
        op: UnOp,
        dst: u32,
        a: Src,
    },
    Sfu {
        op: SfuOp,
        dst: u32,
        a: Src,
    },
    SetP {
        op: CmpOp,
        ty: Scalar,
        dst: u32,
        a: Src,
        b: Src,
    },
    Sel {
        dst: u32,
        c: Src,
        a: Src,
        b: Src,
    },
    LdShared {
        dst: u32,
        addr: Src,
        off: i32,
    },
    StShared {
        addr: Src,
        off: i32,
        src: Src,
    },
}

fn lower(inst: &Inst) -> CompiledOp {
    match *inst {
        Inst::Alu { op, dst, a, b } => CompiledOp::Alu {
            op,
            dst: dst.0 * 32,
            a: lower_src(a),
            b: lower_src(b),
        },
        Inst::Ffma { dst, a, b, c } => CompiledOp::Ffma {
            dst: dst.0 * 32,
            a: lower_src(a),
            b: lower_src(b),
            c: lower_src(c),
        },
        Inst::Imad { dst, a, b, c } => CompiledOp::Imad {
            dst: dst.0 * 32,
            a: lower_src(a),
            b: lower_src(b),
            c: lower_src(c),
        },
        Inst::Un { op, dst, a } => CompiledOp::Un {
            op,
            dst: dst.0 * 32,
            a: lower_src(a),
        },
        Inst::Sfu { op, dst, a } => CompiledOp::Sfu {
            op,
            dst: dst.0 * 32,
            a: lower_src(a),
        },
        Inst::SetP { op, ty, dst, a, b } => CompiledOp::SetP {
            op,
            ty,
            dst: dst.0 * 32,
            a: lower_src(a),
            b: lower_src(b),
        },
        Inst::Sel { dst, c, a, b } => CompiledOp::Sel {
            dst: dst.0 * 32,
            c: lower_src(c),
            a: lower_src(a),
            b: lower_src(b),
        },
        Inst::Ld {
            space: Space::Shared,
            dst,
            addr,
            off,
        } => CompiledOp::LdShared {
            dst: dst.0 * 32,
            addr: lower_src(addr),
            off,
        },
        Inst::St {
            space: Space::Shared,
            addr,
            off,
            src,
        } => CompiledOp::StShared {
            addr: lower_src(addr),
            off,
            src: lower_src(src),
        },
        _ => unreachable!("lowering a region-ineligible instruction"),
    }
}

/// May this instruction live inside a region? (See the module doc.)
fn eligible(inst: &Inst) -> bool {
    inst.is_pure()
        || matches!(
            inst,
            Inst::Ld {
                space: Space::Shared,
                ..
            } | Inst::St {
                space: Space::Shared,
                ..
            }
        )
}

/// What the scheduler does when a warp's pc reaches this instruction.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Step {
    /// First instruction of region `idx`: run the region's functional
    /// effects over the warp, then charge this instruction's timing.
    Enter(u32),
    /// Interior instruction of region `idx`: timing only — the functional
    /// work already happened at [`Step::Enter`].
    Timed(u32),
    /// Not part of any region: full interpretation.
    Interp,
}

/// One straight-line region: lowered ops for pcs `start .. start + ops.len()`.
#[derive(Clone, Debug)]
pub struct Region {
    /// pc of the first instruction.
    pub start: u32,
    pub ops: Vec<CompiledOp>,
}

/// A kernel lowered for the compiled engine: a per-pc step table (aligned
/// with the decoded micro-op table) plus the region bodies.
#[derive(Clone, Debug)]
pub struct CompiledKernel {
    /// One entry per instruction, same order as the code.
    pub steps: Vec<Step>,
    pub regions: Vec<Region>,
}

impl CompiledKernel {
    /// Lowers a kernel. O(code length); done once per kernel per process by
    /// the predecode registry.
    pub fn new(kernel: &Kernel) -> Self {
        Self::from_code(&kernel.code)
    }

    /// Lowers a raw instruction sequence.
    pub fn from_code(code: &[Inst]) -> Self {
        // Leaders: every pc where control can (re-)enter the stream. Bar and
        // Exit break regions anyway, but their successors are entry points
        // (barrier resume, divergence-stack pops) and cost nothing to mark.
        let mut leader = vec![false; code.len() + 1];
        leader[0] = true;
        for (pc, inst) in code.iter().enumerate() {
            match inst {
                Inst::Bra { target, reconv, .. } => {
                    leader[target.0 as usize] = true;
                    leader[reconv.0 as usize] = true;
                    leader[pc + 1] = true;
                }
                Inst::Bar | Inst::Exit => leader[pc + 1] = true,
                _ => {}
            }
        }

        let mut steps = vec![Step::Interp; code.len()];
        let mut regions = Vec::new();
        let mut pc = 0usize;
        while pc < code.len() {
            if !eligible(&code[pc]) {
                pc += 1;
                continue;
            }
            let start = pc;
            let mut end = pc + 1;
            while end < code.len() && eligible(&code[end]) && !leader[end] {
                end += 1;
            }
            if end - start >= MIN_REGION_LEN {
                let idx = regions.len() as u32;
                regions.push(Region {
                    start: start as u32,
                    ops: code[start..end].iter().map(lower).collect(),
                });
                steps[start] = Step::Enter(idx);
                for s in &mut steps[start + 1..end] {
                    *s = Step::Timed(idx);
                }
            }
            pc = end;
        }
        CompiledKernel { steps, regions }
    }

    /// The step for the instruction at `pc`.
    #[inline]
    pub fn step(&self, pc: usize) -> Step {
        self.steps[pc]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{Label, Pred, Reg};

    fn r(n: u32) -> Reg {
        Reg(n)
    }

    fn fma(dst: u32) -> Inst {
        Inst::Ffma {
            dst: r(dst),
            a: r(1).into(),
            b: r(2).into(),
            c: r(dst).into(),
        }
    }

    fn ld_shared(dst: u32) -> Inst {
        Inst::Ld {
            space: Space::Shared,
            dst: r(dst),
            addr: r(0).into(),
            off: 0,
        }
    }

    fn ld_global(dst: u32) -> Inst {
        Inst::Ld {
            space: Space::Global,
            dst: r(dst),
            addr: r(0).into(),
            off: 0,
        }
    }

    #[test]
    fn straight_line_run_becomes_one_region() {
        // global load | shared ld, fma, shared ld, fma | exit
        let code = vec![
            ld_global(1),
            ld_shared(2),
            fma(3),
            ld_shared(4),
            fma(5),
            Inst::Exit,
        ];
        let ck = CompiledKernel::from_code(&code);
        assert_eq!(ck.regions.len(), 1);
        assert_eq!(ck.regions[0].start, 1);
        assert_eq!(ck.regions[0].ops.len(), 4);
        assert_eq!(
            ck.steps,
            vec![
                Step::Interp,
                Step::Enter(0),
                Step::Timed(0),
                Step::Timed(0),
                Step::Timed(0),
                Step::Interp,
            ]
        );
    }

    #[test]
    fn branch_targets_split_regions() {
        // A loop: body at pc 1 is a branch target, so the run 1..=2 must
        // not be glued to the eligible op at pc 0.
        let code = vec![
            fma(3),
            fma(4),
            fma(5),
            Inst::Bra {
                target: Label(1),
                reconv: Label(4),
                pred: Some(Pred::if_true(r(6))),
            },
            Inst::Exit,
        ];
        let ck = CompiledKernel::from_code(&code);
        // pc 0 alone is below MIN_REGION_LEN; pcs 1..=2 form a region.
        assert_eq!(ck.regions.len(), 1);
        assert_eq!(ck.regions[0].start, 1);
        assert_eq!(ck.regions[0].ops.len(), 2);
        assert_eq!(ck.steps[0], Step::Interp);
        assert_eq!(ck.steps[1], Step::Enter(0));
        assert_eq!(ck.steps[2], Step::Timed(0));
        assert_eq!(ck.steps[3], Step::Interp);
    }

    #[test]
    fn short_runs_stay_interpreted() {
        let code = vec![fma(3), ld_global(1), fma(4), ld_global(2), Inst::Exit];
        let ck = CompiledKernel::from_code(&code);
        assert!(ck.regions.is_empty());
        assert!(ck.steps.iter().all(|s| *s == Step::Interp));
    }

    #[test]
    fn barrier_breaks_regions() {
        let code = vec![fma(3), fma(4), Inst::Bar, fma(5), fma(6), Inst::Exit];
        let ck = CompiledKernel::from_code(&code);
        assert_eq!(ck.regions.len(), 2);
        assert_eq!(ck.regions[0].start, 0);
        assert_eq!(ck.regions[1].start, 3);
        assert_eq!(ck.steps[2], Step::Interp);
    }

    #[test]
    fn lowering_prescales_register_indices() {
        let ck = CompiledKernel::from_code(&[ld_shared(2), fma(3), Inst::Exit]);
        match ck.regions[0].ops[0] {
            CompiledOp::LdShared {
                dst,
                addr: Src::Reg(a),
                off,
            } => {
                assert_eq!(dst, 64);
                assert_eq!(a, 0);
                assert_eq!(off, 0);
            }
            ref op => panic!("unexpected lowering: {op:?}"),
        }
        match ck.regions[0].ops[1] {
            CompiledOp::Ffma { dst, .. } => assert_eq!(dst, 96),
            ref op => panic!("unexpected lowering: {op:?}"),
        }
    }
}
