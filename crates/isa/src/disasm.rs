//! Human-readable kernel listings — our analogue of inspecting the PTX dump,
//! which is how the paper estimates instruction mixes (Section 3.1: "PTX is
//! generally sufficient in the initial stages of estimating resource
//! requirements").

use crate::inst::{AluOp, Inst, Operand, SfuOp, Space, SpecialReg, UnOp};
use crate::kernel::Kernel;
use std::fmt::Write;

fn op_str(op: &Operand) -> String {
    match op {
        Operand::Reg(r) => format!("r{}", r.0),
        Operand::Imm(v) => {
            // Heuristic: print as a float only when the bits decode to a
            // "plausible" float magnitude; small integers otherwise decode
            // to subnormals and would print unreadably.
            let f = v.as_f32();
            if f.is_finite() && f.fract() != 0.0 && f.abs() > 1e-6 && f.abs() < 1e9 {
                format!("{f}f")
            } else {
                format!("{}", v.as_u32())
            }
        }
        Operand::Param(i) => format!("param{i}"),
        Operand::Special(s) => special_str(*s).to_string(),
    }
}

fn special_str(s: SpecialReg) -> &'static str {
    match s {
        SpecialReg::TidX => "%tid.x",
        SpecialReg::TidY => "%tid.y",
        SpecialReg::TidZ => "%tid.z",
        SpecialReg::NtidX => "%ntid.x",
        SpecialReg::NtidY => "%ntid.y",
        SpecialReg::NtidZ => "%ntid.z",
        SpecialReg::CtaidX => "%ctaid.x",
        SpecialReg::CtaidY => "%ctaid.y",
        SpecialReg::NctaidX => "%nctaid.x",
        SpecialReg::NctaidY => "%nctaid.y",
    }
}

fn alu_str(op: AluOp) -> &'static str {
    match op {
        AluOp::FAdd => "add.f32",
        AluOp::FSub => "sub.f32",
        AluOp::FMul => "mul.f32",
        AluOp::FMin => "min.f32",
        AluOp::FMax => "max.f32",
        AluOp::IAdd => "add.u32",
        AluOp::ISub => "sub.u32",
        AluOp::IMul => "mul.lo.u32",
        AluOp::UMin => "min.u32",
        AluOp::UMax => "max.u32",
        AluOp::IMin => "min.s32",
        AluOp::IMax => "max.s32",
        AluOp::And => "and.b32",
        AluOp::Or => "or.b32",
        AluOp::Xor => "xor.b32",
        AluOp::Shl => "shl.b32",
        AluOp::ShrU => "shr.u32",
        AluOp::ShrS => "shr.s32",
        AluOp::Rotl => "rotl.b32",
    }
}

fn un_str(op: UnOp) -> &'static str {
    match op {
        UnOp::Mov => "mov.b32",
        UnOp::FNeg => "neg.f32",
        UnOp::FAbs => "abs.f32",
        UnOp::Not => "not.b32",
        UnOp::CvtF2I => "cvt.rzi.s32.f32",
        UnOp::CvtI2F => "cvt.rn.f32.s32",
        UnOp::CvtF2U => "cvt.rzi.u32.f32",
        UnOp::CvtU2F => "cvt.rn.f32.u32",
        UnOp::FFloor => "cvt.rmi.f32.f32",
    }
}

fn sfu_str(op: SfuOp) -> &'static str {
    match op {
        SfuOp::Rcp => "rcp.approx.f32",
        SfuOp::Rsqrt => "rsqrt.approx.f32",
        SfuOp::Sqrt => "sqrt.approx.f32",
        SfuOp::Sin => "sin.approx.f32",
        SfuOp::Cos => "cos.approx.f32",
        SfuOp::Ex2 => "ex2.approx.f32",
        SfuOp::Lg2 => "lg2.approx.f32",
    }
}

fn space_str(s: Space) -> &'static str {
    match s {
        Space::Global => "global",
        Space::Shared => "shared",
        Space::Const => "const",
        Space::Local => "local",
        Space::Tex => "tex",
    }
}

/// Renders one instruction as PTX-flavoured text.
pub(crate) fn inst_to_string(inst: &Inst) -> String {
    match inst {
        Inst::Alu { op, dst, a, b } => {
            format!("{} r{}, {}, {}", alu_str(*op), dst.0, op_str(a), op_str(b))
        }
        Inst::Ffma { dst, a, b, c } => format!(
            "mad.f32 r{}, {}, {}, {}",
            dst.0,
            op_str(a),
            op_str(b),
            op_str(c)
        ),
        Inst::Imad { dst, a, b, c } => format!(
            "mad.lo.u32 r{}, {}, {}, {}",
            dst.0,
            op_str(a),
            op_str(b),
            op_str(c)
        ),
        Inst::Un { op, dst, a } => format!("{} r{}, {}", un_str(*op), dst.0, op_str(a)),
        Inst::Sfu { op, dst, a } => format!("{} r{}, {}", sfu_str(*op), dst.0, op_str(a)),
        Inst::SetP { op, ty, dst, a, b } => format!(
            "setp.{:?}.{:?} r{}, {}, {}",
            op,
            ty,
            dst.0,
            op_str(a),
            op_str(b)
        )
        .to_lowercase(),
        Inst::Sel { dst, c, a, b } => format!(
            "selp.b32 r{}, {}, {}, {}",
            dst.0,
            op_str(a),
            op_str(b),
            op_str(c)
        ),
        Inst::Ld {
            space,
            dst,
            addr,
            off,
        } => format!(
            "ld.{} r{}, [{}{:+}]",
            space_str(*space),
            dst.0,
            op_str(addr),
            off
        ),
        Inst::St {
            space,
            addr,
            off,
            src,
        } => format!(
            "st.{} [{}{:+}], {}",
            space_str(*space),
            op_str(addr),
            off,
            op_str(src)
        ),
        Inst::Atom {
            op,
            space,
            dst,
            addr,
            off,
            src,
        } => {
            let d = dst.map(|r| format!("r{}, ", r.0)).unwrap_or_default();
            format!(
                "atom.{}.{:?} {}[{}{:+}], {}",
                space_str(*space),
                op,
                d,
                op_str(addr),
                off,
                op_str(src)
            )
            .to_lowercase()
        }
        Inst::Bra {
            target,
            reconv,
            pred,
        } => match pred {
            None => format!("bra L{}", target.0),
            Some(p) => format!(
                "@{}r{} bra L{} (reconv L{})",
                if p.negate { "!" } else { "" },
                p.reg.0,
                target.0,
                reconv.0
            ),
        },
        Inst::Bar => "bar.sync 0".to_string(),
        Inst::Exit => "exit".to_string(),
    }
}

/// Renders a full kernel listing with branch-target labels and a resource
/// summary header.
pub fn disassemble(k: &Kernel) -> String {
    let mut targets: Vec<usize> = k
        .code
        .iter()
        .filter_map(|i| match i {
            Inst::Bra { target, .. } => Some(target.0 as usize),
            _ => None,
        })
        .collect();
    targets.sort_unstable();
    targets.dedup();

    let mut s = String::new();
    let mix = k.static_mix();
    let _ = writeln!(
        s,
        "// kernel {}: {} insts, {} regs/thread, {} B smem, {} params",
        k.name,
        mix.total(),
        k.regs_per_thread,
        k.smem_bytes,
        k.num_params
    );
    let _ = writeln!(
        s,
        "// mix: {:.1}% fma, {:.1}% global mem",
        mix.fma_fraction() * 100.0,
        mix.global_fraction() * 100.0
    );
    for (i, inst) in k.code.iter().enumerate() {
        if targets.binary_search(&i).is_ok() {
            let _ = writeln!(s, "L{i}:");
        }
        let _ = writeln!(s, "  {:4}  {}", i, inst_to_string(inst));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;

    #[test]
    fn disassembly_contains_landmarks() {
        let mut b = KernelBuilder::new("demo");
        let p = b.param();
        let t = b.tid_x();
        let a = b.shl(t, 2u32);
        let a = b.iadd(a, p);
        let v = b.ld_global(a, 0);
        let w = b.fmul(v, 3.0f32);
        b.st_global(a, 0, w);
        let k = b.build();
        let text = disassemble(&k);
        assert!(text.contains("kernel demo"));
        assert!(text.contains("ld.global"));
        assert!(text.contains("st.global"));
        assert!(text.contains("mul.f32"));
        assert!(text.contains("exit"));
    }

    #[test]
    fn loop_listing_has_labels() {
        let mut b = KernelBuilder::new("loopy");
        let p = b.param();
        let acc = b.mov(crate::inst::Operand::imm_f(0.0));
        b.for_range(0u32, 4u32, 1, crate::builder::Unroll::None, |b, i| {
            let f = b.un(UnOp::CvtU2F, i);
            b.ffma_to(acc, f, f, acc);
        });
        b.st_global(p, 0, acc);
        let k = b.build();
        let text = disassemble(&k);
        assert!(text.contains("bra L"));
        assert!(text.contains("L"));
        assert!(text.contains("mad.f32"));
    }
}
