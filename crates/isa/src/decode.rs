//! Predecoding: a flat micro-op table consumed by the simulator's hot loop.
//!
//! The timing engine's inner scheduler tests *every* stalled warp's next
//! instruction for register readiness on *every* issue attempt. Doing that
//! against the architectural [`Inst`] means re-walking the operand structure
//! (an enum match plus closure calls per operand) millions of times per
//! simulated kernel — pure interpretation overhead with no modeling content.
//!
//! A [`DecodedKernel`] is computed once per launch and caches, per
//! instruction:
//!
//! * the **scoreboard gate set** — the registers whose pending writes gate
//!   issue (all register sources plus the destination for the WAW hazard),
//!   deduplicated, in operand order, as a flat `[u16; 4]`;
//! * the **issue class** — which issue-port occupancy the instruction pays
//!   ([`IssueClass`]; the G80 charges 32-bit multiplies and SFU
//!   transcendentals extra slots);
//! * the counter **class and FLOP weight** (otherwise recomputed per issue);
//! * a **memory-access descriptor** ([`MemKind`]) for loads/stores/atomics.
//!
//! Predecoding is a pure host-side optimization: it must not (and cannot)
//! change simulated timing, because every cached field is a function of the
//! instruction alone. The `golden_stats` integration test in the workspace
//! root enforces bit-identical [`g80_sim`-level] statistics between the
//! predecoded engine and the reference engine.

use crate::inst::{AluOp, Inst, InstClass, Operand, Space};
use crate::kernel::Kernel;

/// Sentinel register id meaning "no destination".
pub(crate) const NO_REG: u16 = u16::MAX;

/// Issue-port occupancy class (Section 4.1: one warp instruction per 4
/// cycles, longer for SFU ops and 32-bit integer multiplies).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum IssueClass {
    /// Standard 4-cycle issue (`GpuConfig::issue_cycles`).
    Normal,
    /// 32-bit integer multiply path (`GpuConfig::imul_issue_cycles`).
    Imul,
    /// SFU transcendental path (`GpuConfig::sfu_issue_cycles`).
    Sfu,
}

/// What a memory instruction does, with its address space.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum MemKind {
    Load(Space),
    Store(Space),
    Atomic(Space),
}

/// One predecoded instruction.
#[derive(Copy, Clone, Debug)]
pub struct MicroOp {
    /// The architectural instruction (the functional-execution payload).
    pub inst: Inst,
    /// Counter class, cached from [`Inst::class`].
    pub class: InstClass,
    /// FLOPs per active lane, cached from [`Inst::flops`].
    pub flops: u32,
    /// Issue-port occupancy class.
    pub issue: IssueClass,
    /// Destination register, or [`NO_REG`].
    pub dst: u16,
    /// Scoreboard gate set: registers whose pending writes delay issue.
    /// Sources in operand order, then the destination (WAW), deduplicated
    /// keeping the first occurrence. Only the first `ngated` entries are
    /// meaningful.
    pub gated: [u16; 4],
    /// Number of live entries in `gated`.
    pub ngated: u8,
    /// Memory-access descriptor for loads/stores/atomics.
    pub mem: Option<MemKind>,
}

impl MicroOp {
    /// Decodes one instruction.
    pub fn decode(inst: &Inst) -> MicroOp {
        let mut gated = [NO_REG; 4];
        let mut ngated = 0u8;
        {
            let mut push = |r: u32| {
                let r = r as u16;
                for &g in gated.iter().take(ngated as usize) {
                    if g == r {
                        return; // duplicate: the first occurrence already gates
                    }
                }
                gated[ngated as usize] = r;
                ngated += 1;
            };
            // Source order matters for stall attribution: the scheduler blames
            // the *latest-ready* register, ties broken by first occurrence —
            // exactly what a left-to-right scan of this list reproduces.
            inst.for_each_use(|op| {
                if let Operand::Reg(r) = op {
                    push(r.0);
                }
            });
            if let Some(d) = inst.def() {
                push(d.0); // WAW hazard: the previous write must land first
            }
        }
        let issue = match inst {
            Inst::Alu {
                op: AluOp::IMul, ..
            }
            | Inst::Imad { .. } => IssueClass::Imul,
            Inst::Sfu { .. } => IssueClass::Sfu,
            _ => IssueClass::Normal,
        };
        let mem = match inst {
            Inst::Ld { space, .. } => Some(MemKind::Load(*space)),
            Inst::St { space, .. } => Some(MemKind::Store(*space)),
            Inst::Atom { space, .. } => Some(MemKind::Atomic(*space)),
            _ => None,
        };
        MicroOp {
            inst: *inst,
            class: inst.class(),
            flops: inst.flops(),
            issue,
            dst: inst.def().map_or(NO_REG, |r| r.0 as u16),
            gated,
            ngated,
            mem,
        }
    }

    /// The live prefix of the gate set.
    pub fn gate_regs(&self) -> &[u16] {
        &self.gated[..self.ngated as usize]
    }
}

/// A kernel predecoded into a flat micro-op table, indexed by PC.
#[derive(Clone, Debug)]
pub struct DecodedKernel {
    /// One micro-op per instruction of the source kernel, same order.
    pub ops: Vec<MicroOp>,
}

impl DecodedKernel {
    /// Predecodes a kernel. O(code length); done once per launch.
    pub fn new(kernel: &Kernel) -> Self {
        Self::from_code(&kernel.code)
    }

    /// Predecodes a raw instruction sequence.
    pub fn from_code(code: &[Inst]) -> Self {
        DecodedKernel {
            ops: code.iter().map(MicroOp::decode).collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.ops.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{AtomOp, CmpOp, Label, Pred, Reg, Scalar, SfuOp, UnOp};
    use crate::Value;

    fn r(n: u32) -> Reg {
        Reg(n)
    }

    #[test]
    fn gate_set_is_sources_then_waw_dst() {
        let fma = Inst::Ffma {
            dst: r(7),
            a: r(1).into(),
            b: r(2).into(),
            c: r(3).into(),
        };
        let op = MicroOp::decode(&fma);
        assert_eq!(op.gate_regs(), &[1, 2, 3, 7]);
        assert_eq!(op.dst, 7);
        assert_eq!(op.issue, IssueClass::Normal);
        assert_eq!(op.class, InstClass::Fma);
        assert_eq!(op.flops, 2);
    }

    #[test]
    fn gate_set_deduplicates_keeping_first() {
        // dst aliases a source (the accumulate idiom): one gate entry.
        let fma = Inst::Ffma {
            dst: r(0),
            a: r(1).into(),
            b: r(1).into(),
            c: r(0).into(),
        };
        let op = MicroOp::decode(&fma);
        assert_eq!(op.gate_regs(), &[1, 0]);
    }

    #[test]
    fn immediates_and_params_do_not_gate() {
        let alu = Inst::Alu {
            op: AluOp::IAdd,
            dst: r(4),
            a: Operand::Param(0),
            b: Operand::Imm(Value::from_u32(8)),
        };
        let op = MicroOp::decode(&alu);
        assert_eq!(op.gate_regs(), &[4]); // only the WAW dst
    }

    #[test]
    fn issue_classes() {
        let imul = Inst::Alu {
            op: AluOp::IMul,
            dst: r(0),
            a: r(1).into(),
            b: r(2).into(),
        };
        assert_eq!(MicroOp::decode(&imul).issue, IssueClass::Imul);
        let imad = Inst::Imad {
            dst: r(0),
            a: r(1).into(),
            b: r(2).into(),
            c: r(3).into(),
        };
        assert_eq!(MicroOp::decode(&imad).issue, IssueClass::Imul);
        let sfu = Inst::Sfu {
            op: SfuOp::Rcp,
            dst: r(0),
            a: r(1).into(),
        };
        assert_eq!(MicroOp::decode(&sfu).issue, IssueClass::Sfu);
        let shl = Inst::Alu {
            op: AluOp::Shl,
            dst: r(0),
            a: r(1).into(),
            b: Operand::imm_u(2),
        };
        assert_eq!(MicroOp::decode(&shl).issue, IssueClass::Normal);
    }

    #[test]
    fn memory_descriptors() {
        let ld = Inst::Ld {
            space: Space::Shared,
            dst: r(0),
            addr: r(1).into(),
            off: 4,
        };
        assert_eq!(MicroOp::decode(&ld).mem, Some(MemKind::Load(Space::Shared)));
        let st = Inst::St {
            space: Space::Global,
            addr: r(1).into(),
            off: 0,
            src: r(2).into(),
        };
        let op = MicroOp::decode(&st);
        assert_eq!(op.mem, Some(MemKind::Store(Space::Global)));
        assert_eq!(op.dst, NO_REG);
        assert_eq!(op.gate_regs(), &[1, 2]);
        let atom = Inst::Atom {
            op: AtomOp::Add,
            space: Space::Global,
            dst: Some(r(5)),
            addr: r(1).into(),
            off: 0,
            src: r(2).into(),
        };
        let op = MicroOp::decode(&atom);
        assert_eq!(op.mem, Some(MemKind::Atomic(Space::Global)));
        assert_eq!(op.gate_regs(), &[1, 2, 5]);
    }

    #[test]
    fn branch_predicate_gates() {
        let bra = Inst::Bra {
            target: Label(3),
            reconv: Label(9),
            pred: Some(Pred::if_true(r(6))),
        };
        let op = MicroOp::decode(&bra);
        assert_eq!(op.gate_regs(), &[6]);
        assert_eq!(op.dst, NO_REG);
        let ubra = Inst::Bra {
            target: Label(3),
            reconv: Label(9),
            pred: None,
        };
        assert_eq!(MicroOp::decode(&ubra).gate_regs(), &[] as &[u16]);
        assert_eq!(MicroOp::decode(&Inst::Bar).ngated, 0);
        assert_eq!(MicroOp::decode(&Inst::Exit).ngated, 0);
    }

    /// The cached fields must agree with the `Inst` methods for every shape
    /// of instruction (the fast path must never diverge from the slow one).
    #[test]
    fn cached_fields_agree_with_inst_methods() {
        let insts = vec![
            Inst::Alu {
                op: AluOp::FMul,
                dst: r(0),
                a: r(1).into(),
                b: r(2).into(),
            },
            Inst::Ffma {
                dst: r(0),
                a: r(1).into(),
                b: r(2).into(),
                c: r(0).into(),
            },
            Inst::Imad {
                dst: r(3),
                a: r(4).into(),
                b: Operand::imm_u(5),
                c: r(3).into(),
            },
            Inst::Un {
                op: UnOp::Mov,
                dst: r(1),
                a: Operand::imm_f(2.0),
            },
            Inst::Sfu {
                op: SfuOp::Sqrt,
                dst: r(2),
                a: r(2).into(),
            },
            Inst::SetP {
                op: CmpOp::Lt,
                ty: Scalar::I32,
                dst: r(5),
                a: r(6).into(),
                b: Operand::imm_i(-1),
            },
            Inst::Sel {
                dst: r(0),
                c: r(5).into(),
                a: r(6).into(),
                b: r(7).into(),
            },
            Inst::Ld {
                space: Space::Const,
                dst: r(1),
                addr: r(2).into(),
                off: -8,
            },
            Inst::St {
                space: Space::Local,
                addr: r(1).into(),
                off: 0,
                src: Operand::imm_u(0),
            },
            Inst::Bra {
                target: Label(0),
                reconv: Label(1),
                pred: Some(Pred::if_false(r(9))),
            },
            Inst::Bar,
            Inst::Exit,
        ];
        let decoded = DecodedKernel::from_code(&insts);
        assert_eq!(decoded.len(), insts.len());
        for (inst, op) in insts.iter().zip(&decoded.ops) {
            assert_eq!(op.class, inst.class());
            assert_eq!(op.flops, inst.flops());
            assert_eq!(op.dst, inst.def().map_or(NO_REG, |d| d.0 as u16));
            // Gate set == dedup(uses ++ def), first occurrence kept.
            let mut expect: Vec<u16> = Vec::new();
            for u in inst.uses() {
                if !expect.contains(&(u.0 as u16)) {
                    expect.push(u.0 as u16);
                }
            }
            if let Some(d) = inst.def() {
                if !expect.contains(&(d.0 as u16)) {
                    expect.push(d.0 as u16);
                }
            }
            assert_eq!(op.gate_regs(), expect.as_slice(), "for {inst:?}");
        }
    }
}
