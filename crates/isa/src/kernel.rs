//! Compiled kernels and their static metadata.

use crate::inst::{Inst, InstClass};
use std::collections::HashMap;

/// A compiled kernel: flat code with resolved branch targets, plus the static
/// resource footprint that determines occupancy (paper Section 3.2).
#[derive(Clone, Debug)]
pub struct Kernel {
    /// Kernel name (for reports).
    pub name: String,
    /// Flat instruction stream. Branch `Label`s are instruction indices.
    pub code: Vec<Inst>,
    /// Physical registers per thread after allocation. This is the value the
    /// block scheduler multiplies by the thread count against the 8192-entry
    /// register file (Section 4.2's "11 registers ⇒ one fewer block" effect).
    pub regs_per_thread: u32,
    /// Statically allocated shared memory per block, in bytes.
    pub smem_bytes: u32,
    /// Number of kernel parameters expected at launch.
    pub num_params: u16,
}

impl Kernel {
    /// Overrides the reported register count (the analogue of observing a
    /// different count out of nvcc's scheduler, or of `-maxrregcount` without
    /// spilling). Used for the paper's occupancy-cliff ablations.
    pub fn with_forced_regs(mut self, regs: u32) -> Self {
        self.regs_per_thread = regs;
        self
    }

    /// Static instruction mix over the whole kernel body.
    pub fn static_mix(&self) -> InstMix {
        let mut mix = InstMix::default();
        for inst in &self.code {
            *mix.counts.entry(inst.class()).or_insert(0) += 1;
        }
        mix
    }

    /// Validates structural invariants; returns a description of the first
    /// violation. Called by the builder; also useful after hand-editing code
    /// in tests.
    pub fn validate(&self) -> Result<(), String> {
        if self.code.is_empty() {
            return Err("empty kernel".into());
        }
        for (i, inst) in self.code.iter().enumerate() {
            if let Inst::Bra {
                target,
                reconv,
                pred,
            } = inst
            {
                if target.0 as usize >= self.code.len() {
                    return Err(format!("inst {i}: branch target {} out of range", target.0));
                }
                if pred.is_some() {
                    if reconv.0 as usize > self.code.len() {
                        return Err(format!(
                            "inst {i}: reconvergence point {} out of range",
                            reconv.0
                        ));
                    }
                    if (reconv.0 as usize) <= i {
                        return Err(format!(
                            "inst {i}: reconvergence point {} is not forward",
                            reconv.0
                        ));
                    }
                }
            }
        }
        match self.code.last() {
            Some(Inst::Exit) | Some(Inst::Bra { pred: None, .. }) => Ok(()),
            _ => Err("kernel does not end in exit or unconditional branch".into()),
        }
    }
}

/// Instruction counts by class, with the ratios Section 4 reasons about.
#[derive(Clone, Debug, Default)]
pub struct InstMix {
    pub counts: HashMap<InstClass, u64>,
}

impl InstMix {
    /// Total instructions.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Count for one class.
    pub fn get(&self, c: InstClass) -> u64 {
        self.counts.get(&c).copied().unwrap_or(0)
    }

    /// Fraction of instructions that are f32 FMAs — the input to the paper's
    /// potential-throughput estimate ("one fused multiply-add out of eight
    /// operations", Section 4.1).
    pub fn fma_fraction(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.get(InstClass::Fma) as f64 / t as f64
        }
    }

    /// Fraction of instructions that are global memory accesses ("1/4 of the
    /// operations executed during the loop are loads from off-chip memory").
    pub fn global_fraction(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            return 0.0;
        }
        (self.get(InstClass::LdGlobal) + self.get(InstClass::StGlobal)) as f64 / t as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{Label, Operand, Reg};

    fn exit_kernel(code: Vec<Inst>) -> Kernel {
        Kernel {
            name: "t".into(),
            code,
            regs_per_thread: 4,
            smem_bytes: 0,
            num_params: 0,
        }
    }

    #[test]
    fn validate_rejects_empty() {
        assert!(exit_kernel(vec![]).validate().is_err());
    }

    #[test]
    fn validate_rejects_missing_exit() {
        let k = exit_kernel(vec![Inst::Bar]);
        assert!(k.validate().is_err());
    }

    #[test]
    fn validate_rejects_out_of_range_target() {
        let k = exit_kernel(vec![
            Inst::Bra {
                target: Label(9),
                reconv: Label(1),
                pred: None,
            },
            Inst::Exit,
        ]);
        assert!(k.validate().is_err());
    }

    #[test]
    fn validate_rejects_backward_reconv() {
        let k = exit_kernel(vec![
            Inst::Un {
                op: crate::inst::UnOp::Mov,
                dst: Reg(0),
                a: Operand::imm_u(0),
            },
            Inst::Bra {
                target: Label(0),
                reconv: Label(0),
                pred: Some(crate::inst::Pred::if_true(Reg(0))),
            },
            Inst::Exit,
        ]);
        assert!(k.validate().is_err());
    }

    #[test]
    fn mix_fractions() {
        let k = exit_kernel(vec![
            Inst::Ffma {
                dst: Reg(0),
                a: Operand::imm_f(1.0),
                b: Operand::imm_f(1.0),
                c: Reg(0).into(),
            },
            Inst::Ld {
                space: crate::inst::Space::Global,
                dst: Reg(1),
                addr: Operand::imm_u(0),
                off: 0,
            },
            Inst::Alu {
                op: crate::inst::AluOp::IAdd,
                dst: Reg(2),
                a: Reg(2).into(),
                b: Operand::imm_u(1),
            },
            Inst::Exit,
        ]);
        let mix = k.static_mix();
        assert_eq!(mix.total(), 4);
        assert_eq!(mix.fma_fraction(), 0.25);
        assert_eq!(mix.global_fraction(), 0.25);
    }
}
