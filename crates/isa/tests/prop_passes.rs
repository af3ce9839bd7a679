//! Property tests: the optimizer passes and the register allocator preserve
//! program semantics on randomly generated straight-line programs.
//!
//! A miniature interpreter executes the flat code for a single thread with a
//! tiny global/local memory; observable behaviour is the set of (address,
//! value) pairs stored to global memory. Any transformation that changes an
//! observable store is a bug.

use g80_isa::{allocate_registers, optimize, OptLevel, Value};
use g80_isa::{eval_alu, eval_cmp, eval_ffma, eval_imad, eval_sfu, eval_un};
use g80_isa::{AluOp, CmpOp, Inst, Operand, Reg, Scalar, SfuOp, Space, UnOp};
use proptest::prelude::*;
use std::collections::HashMap;

/// Interprets straight-line code (no branches) for one thread. Returns the
/// global stores performed, in order.
fn interpret(code: &[Inst]) -> Vec<(u32, u32)> {
    let mut regs: HashMap<Reg, Value> = HashMap::new();
    let mut local: HashMap<u32, Value> = HashMap::new();
    let mut stores = Vec::new();

    let get = |regs: &HashMap<Reg, Value>, op: &Operand| -> Value {
        match op {
            Operand::Reg(r) => regs.get(r).copied().unwrap_or(Value::ZERO),
            Operand::Imm(v) => *v,
            Operand::Param(_) => Value::ZERO,
            Operand::Special(_) => Value::from_u32(7), // fixed fake tid
        }
    };

    for inst in code {
        match *inst {
            Inst::Alu { op, dst, a, b } => {
                let v = eval_alu(op, get(&regs, &a), get(&regs, &b));
                regs.insert(dst, v);
            }
            Inst::Ffma { dst, a, b, c } => {
                let v = eval_ffma(get(&regs, &a), get(&regs, &b), get(&regs, &c));
                regs.insert(dst, v);
            }
            Inst::Imad { dst, a, b, c } => {
                let v = eval_imad(get(&regs, &a), get(&regs, &b), get(&regs, &c));
                regs.insert(dst, v);
            }
            Inst::Un { op, dst, a } => {
                let v = eval_un(op, get(&regs, &a));
                regs.insert(dst, v);
            }
            Inst::Sfu { op, dst, a } => {
                let v = eval_sfu(op, get(&regs, &a));
                regs.insert(dst, v);
            }
            Inst::SetP { op, ty, dst, a, b } => {
                let v = eval_cmp(op, ty, get(&regs, &a), get(&regs, &b));
                regs.insert(dst, v);
            }
            Inst::Sel { dst, c, a, b } => {
                let v = if get(&regs, &c).as_bool() {
                    get(&regs, &a)
                } else {
                    get(&regs, &b)
                };
                regs.insert(dst, v);
            }
            Inst::St {
                space: Space::Global,
                addr,
                off,
                src,
            } => {
                let a = get(&regs, &addr).as_u32().wrapping_add(off as u32);
                stores.push((a, get(&regs, &src).as_u32()));
            }
            Inst::St {
                space: Space::Local,
                addr,
                off,
                src,
            } => {
                let a = get(&regs, &addr).as_u32().wrapping_add(off as u32);
                local.insert(a, get(&regs, &src));
            }
            Inst::Ld {
                space: Space::Local,
                dst,
                addr,
                off,
            } => {
                let a = get(&regs, &addr).as_u32().wrapping_add(off as u32);
                regs.insert(dst, local.get(&a).copied().unwrap_or(Value::ZERO));
            }
            Inst::Exit => break,
            ref other => panic!("interpreter: unsupported instruction {other:?}"),
        }
    }
    stores
}

const NREGS: u32 = 8;

/// Strategy: one random pure instruction over registers r0..r7 and small
/// immediates. Register reads before definition read zero — same as the
/// interpreter's default — so every program is well-defined.
fn arb_inst() -> impl Strategy<Value = Inst> {
    let reg = (0..NREGS).prop_map(Reg);
    let operand = prop_oneof![
        (0..NREGS).prop_map(|r| Operand::Reg(Reg(r))),
        (-4i32..20).prop_map(Operand::imm_i),
        (-2.0f32..2.0).prop_map(Operand::imm_f),
    ];
    let alu_op = prop_oneof![
        Just(AluOp::FAdd),
        Just(AluOp::FSub),
        Just(AluOp::FMul),
        Just(AluOp::IAdd),
        Just(AluOp::ISub),
        Just(AluOp::IMul),
        Just(AluOp::And),
        Just(AluOp::Or),
        Just(AluOp::Xor),
        Just(AluOp::Shl),
        Just(AluOp::ShrU),
        Just(AluOp::UMin),
        Just(AluOp::IMax),
    ];
    let un_op = prop_oneof![
        Just(UnOp::Mov),
        Just(UnOp::FNeg),
        Just(UnOp::FAbs),
        Just(UnOp::Not),
        Just(UnOp::CvtI2F),
        Just(UnOp::CvtU2F),
    ];
    let sfu_op = prop_oneof![Just(SfuOp::Rcp), Just(SfuOp::Ex2)];
    let cmp_op = prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Lt),
        Just(CmpOp::Ge),
        Just(CmpOp::Ne)
    ];
    let ty = prop_oneof![Just(Scalar::U32), Just(Scalar::I32), Just(Scalar::F32)];

    prop_oneof![
        (alu_op, reg.clone(), operand.clone(), operand.clone())
            .prop_map(|(op, dst, a, b)| Inst::Alu { op, dst, a, b }),
        (
            reg.clone(),
            operand.clone(),
            operand.clone(),
            operand.clone()
        )
            .prop_map(|(dst, a, b, c)| Inst::Ffma { dst, a, b, c }),
        (
            reg.clone(),
            operand.clone(),
            operand.clone(),
            operand.clone()
        )
            .prop_map(|(dst, a, b, c)| Inst::Imad { dst, a, b, c }),
        (un_op, reg.clone(), operand.clone()).prop_map(|(op, dst, a)| Inst::Un { op, dst, a }),
        (sfu_op, reg.clone(), operand.clone()).prop_map(|(op, dst, a)| Inst::Sfu { op, dst, a }),
        (cmp_op, ty, reg.clone(), operand.clone(), operand.clone())
            .prop_map(|(op, ty, dst, a, b)| Inst::SetP { op, ty, dst, a, b }),
        (reg, operand.clone(), operand.clone(), operand).prop_map(|(dst, c, a, b)| Inst::Sel {
            dst,
            c,
            a,
            b
        }),
    ]
}

/// A straight-line program followed by stores of every register (the
/// observable output) and Exit.
fn arb_program() -> impl Strategy<Value = Vec<Inst>> {
    prop::collection::vec(arb_inst(), 1..60).prop_map(|mut code| {
        for r in 0..NREGS {
            code.push(Inst::St {
                space: Space::Global,
                addr: Operand::imm_u(r * 4),
                off: 0,
                src: Operand::Reg(Reg(r)),
            });
        }
        code.push(Inst::Exit);
        code
    })
}

/// Compare store streams allowing NaN bit-pattern equality only (exact bits).
fn assert_same_stores(a: &[(u32, u32)], b: &[(u32, u32)], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: store count differs");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x, y, "{ctx}: store {i} differs");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn o1_preserves_semantics(code in arb_program()) {
        let before = interpret(&code);
        let mut opt = code.clone();
        optimize(OptLevel::O1, &mut opt);
        let after = interpret(&opt);
        assert_same_stores(&before, &after, "O1");
    }

    #[test]
    fn o2_preserves_semantics(code in arb_program()) {
        let before = interpret(&code);
        let mut opt = code.clone();
        optimize(OptLevel::O2, &mut opt);
        let after = interpret(&opt);
        assert_same_stores(&before, &after, "O2");
    }

    #[test]
    fn o2_never_grows_code(code in arb_program()) {
        let mut opt = code.clone();
        optimize(OptLevel::O2, &mut opt);
        prop_assert!(opt.len() <= code.len());
    }

    #[test]
    fn regalloc_preserves_semantics(code in arb_program()) {
        let before = interpret(&code);
        let mut alloc = code.clone();
        let n = allocate_registers(&mut alloc, None);
        prop_assert!((1..=NREGS).contains(&n));
        let after = interpret(&alloc);
        assert_same_stores(&before, &after, "regalloc");
    }

    #[test]
    fn regalloc_with_cap_preserves_semantics(code in arb_program()) {
        let before = interpret(&code);
        let mut alloc = code.clone();
        let n = allocate_registers(&mut alloc, Some(4));
        prop_assert!(n <= NREGS); // cap may be unreachable only if spilling stalls
        let after = interpret(&alloc);
        assert_same_stores(&before, &after, "regalloc cap=4");
    }

    #[test]
    fn full_pipeline_preserves_semantics(code in arb_program()) {
        let before = interpret(&code);
        let mut opt = code.clone();
        optimize(OptLevel::O2, &mut opt);
        allocate_registers(&mut opt, None);
        let after = interpret(&opt);
        assert_same_stores(&before, &after, "O2+regalloc");
    }
}
