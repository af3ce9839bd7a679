//! Control-flow graph construction and register liveness analysis.
//!
//! Used by dead-code elimination and by the linear-scan register allocator
//! (live intervals over the flat instruction order).

// Index-based loops here intentionally walk instruction *positions*.
#![allow(clippy::needless_range_loop)]

use crate::inst::{Inst, Reg};

/// A basic block: the half-open instruction range `[start, end)`.
#[derive(Clone, Debug)]
pub(crate) struct Block {
    pub start: usize,
    pub end: usize,
    pub succs: Vec<usize>,
}

/// Control-flow graph over flat kernel code.
#[derive(Clone, Debug)]
pub(crate) struct Cfg {
    pub blocks: Vec<Block>,
}

/// Builds the CFG. Leaders are: instruction 0, branch targets, and
/// instructions following a terminator. `Bar` conservatively ends a block
/// (it orders memory, and keeping it a boundary simplifies local passes).
pub(crate) fn build_cfg(code: &[Inst]) -> Cfg {
    let n = code.len();
    let mut leader = vec![false; n + 1];
    leader[0] = true;
    for (i, inst) in code.iter().enumerate() {
        match inst {
            Inst::Bra { target, .. } => {
                leader[target.0 as usize] = true;
                leader[i + 1] = true;
            }
            Inst::Exit | Inst::Bar => leader[i + 1] = true,
            _ => {}
        }
    }

    let mut blocks = Vec::new();
    let mut block_of = vec![0usize; n];
    let mut start = 0usize;
    for i in 1..=n {
        if i == n || leader[i] {
            let b = blocks.len();
            for idx in start..i {
                block_of[idx] = b;
            }
            blocks.push(Block {
                start,
                end: i,
                succs: Vec::new(),
            });
            start = i;
        }
    }

    // Successor edges.
    let nb = blocks.len();
    for b in 0..nb {
        let last = blocks[b].end - 1;
        let succs: Vec<usize> = match &code[last] {
            Inst::Bra {
                target, pred: None, ..
            } => vec![block_of[target.0 as usize]],
            Inst::Bra {
                target,
                pred: Some(_),
                ..
            } => {
                let mut s = vec![block_of[target.0 as usize]];
                if blocks[b].end < n {
                    s.push(b + 1);
                }
                s
            }
            Inst::Exit => vec![],
            _ => {
                if blocks[b].end < n {
                    vec![b + 1]
                } else {
                    vec![]
                }
            }
        };
        blocks[b].succs = succs;
    }

    Cfg { blocks }
}

/// Dense register bitset.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) struct RegSet {
    words: Vec<u64>,
}

impl RegSet {
    pub(crate) fn new(nregs: usize) -> Self {
        RegSet {
            words: vec![0; nregs.div_ceil(64)],
        }
    }
    pub(crate) fn insert(&mut self, r: Reg) {
        self.words[r.0 as usize / 64] |= 1 << (r.0 % 64);
    }
    pub(crate) fn remove(&mut self, r: Reg) {
        self.words[r.0 as usize / 64] &= !(1 << (r.0 % 64));
    }
    pub(crate) fn contains(&self, r: Reg) -> bool {
        (self.words[r.0 as usize / 64] >> (r.0 % 64)) & 1 != 0
    }
    /// `self |= other`; returns true if self changed.
    pub(crate) fn union_with(&mut self, other: &RegSet) -> bool {
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let new = *a | *b;
            changed |= new != *a;
            *a = new;
        }
        changed
    }
    /// Iterates set registers.
    pub(crate) fn iter(&self) -> impl Iterator<Item = Reg> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            (0..64)
                .filter(move |b| (w >> b) & 1 != 0)
                .map(move |b| Reg((wi * 64 + b) as u32))
        })
    }
}

/// The number of virtual registers referenced by the code (max id + 1).
pub fn num_regs(code: &[Inst]) -> usize {
    let mut max = 0u32;
    for inst in code {
        if let Some(d) = inst.def() {
            max = max.max(d.0 + 1);
        }
        for u in inst.uses() {
            max = max.max(u.0 + 1);
        }
    }
    max as usize
}

/// Per-block live-in / live-out sets (backwards dataflow to fixpoint).
pub(crate) struct Liveness {
    pub live_in: Vec<RegSet>,
    pub live_out: Vec<RegSet>,
}

pub(crate) fn liveness(code: &[Inst], cfg: &Cfg) -> Liveness {
    let nregs = num_regs(code);
    let nb = cfg.blocks.len();

    // Per-block gen (upward-exposed uses) and kill (defs).
    let mut gen = vec![RegSet::new(nregs); nb];
    let mut kill = vec![RegSet::new(nregs); nb];
    for (b, blk) in cfg.blocks.iter().enumerate() {
        for i in blk.start..blk.end {
            for u in code[i].uses() {
                if !kill[b].contains(u) {
                    gen[b].insert(u);
                }
            }
            if let Some(d) = code[i].def() {
                kill[b].insert(d);
            }
        }
    }

    let mut live_in = vec![RegSet::new(nregs); nb];
    let mut live_out = vec![RegSet::new(nregs); nb];
    let mut changed = true;
    while changed {
        changed = false;
        for b in (0..nb).rev() {
            let mut out = RegSet::new(nregs);
            for &s in &cfg.blocks[b].succs {
                out.union_with(&live_in[s]);
            }
            if live_out[b] != out {
                live_out[b] = out;
                changed = true;
            }
            // in = gen | (out - kill)
            let mut inp = gen[b].clone();
            for r in live_out[b].iter() {
                if !kill[b].contains(r) {
                    inp.insert(r);
                }
            }
            if live_in[b] != inp {
                live_in[b] = inp;
                changed = true;
            }
        }
    }
    Liveness { live_in, live_out }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{AluOp, Label, Operand, Pred, UnOp};

    fn mov(dst: u32, v: u32) -> Inst {
        Inst::Un {
            op: UnOp::Mov,
            dst: Reg(dst),
            a: Operand::imm_u(v),
        }
    }
    fn add(dst: u32, a: u32, b: u32) -> Inst {
        Inst::Alu {
            op: AluOp::IAdd,
            dst: Reg(dst),
            a: Reg(a).into(),
            b: Reg(b).into(),
        }
    }

    #[test]
    fn straight_line_single_block() {
        let code = vec![mov(0, 1), mov(1, 2), add(2, 0, 1), Inst::Exit];
        let cfg = build_cfg(&code);
        assert_eq!(cfg.blocks.len(), 1);
        assert!(cfg.blocks[0].succs.is_empty());
    }

    #[test]
    fn diamond_cfg() {
        // 0: mov r0      (block 0)
        // 1: bra r0 -> 4 (block 0, succs 1 and 2)
        // 2: mov r1      (block 1)
        // 3: bra -> 5    (block 1 -> block 3)
        // 4: mov r1      (block 2 -> block 3)
        // 5: add r2=r1+r1(block 3)
        // 6: exit
        let code = vec![
            mov(0, 1),
            Inst::Bra {
                target: Label(4),
                reconv: Label(5),
                pred: Some(Pred::if_true(Reg(0))),
            },
            mov(1, 10),
            Inst::Bra {
                target: Label(5),
                reconv: Label(5),
                pred: None,
            },
            mov(1, 20),
            add(2, 1, 1),
            Inst::Exit,
        ];
        let cfg = build_cfg(&code);
        assert_eq!(cfg.blocks.len(), 4);
        assert_eq!(cfg.blocks[0].succs, vec![2, 1]);
        assert_eq!(cfg.blocks[1].succs, vec![3]);
        assert_eq!(cfg.blocks[2].succs, vec![3]);

        let lv = liveness(&code, &cfg);
        // r1 live into the join block, r0 not.
        let join = 3;
        assert!(lv.live_in[join].contains(Reg(1)));
        assert!(!lv.live_in[join].contains(Reg(0)));
        // r0 live into blocks 1? no — only used by the branch in block 0.
        assert!(!lv.live_in[1].contains(Reg(0)));
    }

    #[test]
    fn loop_keeps_accumulator_live() {
        // 0: mov r0, 0        block0
        // 1: mov r1, 0        block0
        // 2: add r0 = r0 + r1 block1 (loop head)
        // 3: add r1 = r1 + r1 block1
        // 4: bra r1 -> 2      block1 (back edge)
        // 5: add r2 = r0 + r0 block2
        // 6: exit
        let code = vec![
            mov(0, 0),
            mov(1, 0),
            add(0, 0, 1),
            add(1, 1, 1),
            Inst::Bra {
                target: Label(2),
                reconv: Label(5),
                pred: Some(Pred::if_true(Reg(1))),
            },
            add(2, 0, 0),
            Inst::Exit,
        ];
        let cfg = build_cfg(&code);
        let lv = liveness(&code, &cfg);
        let loop_block = cfg.blocks.iter().position(|b| b.start == 2).unwrap();
        // r0 and r1 both live around the back edge.
        assert!(lv.live_in[loop_block].contains(Reg(0)));
        assert!(lv.live_in[loop_block].contains(Reg(1)));
        assert!(lv.live_out[loop_block].contains(Reg(0)));
    }

    #[test]
    fn regset_ops() {
        let mut s = RegSet::new(130);
        s.insert(Reg(0));
        s.insert(Reg(65));
        s.insert(Reg(129));
        assert!(s.contains(Reg(65)));
        assert!(!s.contains(Reg(64)));
        let collected: Vec<u32> = s.iter().map(|r| r.0).collect();
        assert_eq!(collected, vec![0, 65, 129]);
        s.remove(Reg(65));
        assert!(!s.contains(Reg(65)));

        let mut t = RegSet::new(130);
        t.insert(Reg(7));
        assert!(t.union_with(&s));
        assert!(!t.union_with(&s)); // second union changes nothing
        assert!(t.contains(Reg(0)) && t.contains(Reg(7)) && t.contains(Reg(129)));
    }
}
