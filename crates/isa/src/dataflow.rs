//! Data-independence analysis: does a kernel's *timing* depend on the data
//! it loads?
//!
//! The simulator's block-class deduplication (`g80-sim`) replays blocks that
//! provably behave like an already-simulated representative. A block's
//! timing path is shaped only by its control flow (branch outcomes decide
//! masks and instruction counts) and its memory access patterns (addresses
//! decide coalescing, bank conflicts, and cache behaviour). If neither ever
//! depends on values loaded from memory, then two blocks of the same launch
//! can differ in timing only through their `ctaid` — exactly the property
//! the runtime witness check then verifies per block.
//!
//! The analysis is a flow-sensitive taint fixpoint over the flat code
//! (strong updates per definition, joins at control-flow merges): values
//! produced by loads (and atomics) are tainted; taint propagates through
//! pure ALU ops and through shared/local memory (a store of tainted data, or
//! through a tainted address, taints every later load from that space). A
//! kernel is *timing data-independent* when no branch predicate and no
//! memory address is ever tainted. Immediates, parameters, and special
//! registers (`tid`, `ctaid`, …) are untainted — they are launch constants
//! or geometry, not data.
//!
//! A second lattice bit tracks `ctaid`-dependence, for the two resources
//! whose behaviour depends on the address *value* and not only on its
//! pattern: shared-memory banks ([`TaintSummary::ctaid_shared_addr`]) and
//! the per-SM constant/texture caches ([`TaintSummary::ctaid_cached_addr`]).
//! A cached-space address that is free of both bits is the same in every
//! block of a launch, so the cache sees one block-invariant address stream
//! and blocks stay interchangeable even though they share the cache.

use crate::inst::{Inst, Operand, Space, SpecialReg};

/// Result of analysing one kernel's code.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct TaintSummary {
    /// Some branch predicate depends on loaded data (divergence shape is
    /// data-dependent).
    pub tainted_branch: bool,
    /// Some load/store/atomic address depends on loaded data (coalescing,
    /// bank conflicts, or cache behaviour is data-dependent).
    pub tainted_address: bool,
    /// Some shared-memory access address depends on `ctaid`. When this is
    /// *false* (and the kernel is data-independent), every block of a launch
    /// computes lane-for-lane identical shared addresses, so its bank-
    /// conflict degrees are statically known to equal the representative's —
    /// the replay executor can skip recomputing and re-verifying them.
    pub ctaid_shared_addr: bool,
    /// Some branch predicate depends on `ctaid` (blocks may take different
    /// paths; the runtime witness check decides per launch).
    pub ctaid_branch: bool,
    /// The kernel performs atomic read-modify-writes.
    pub has_atomic: bool,
    /// Some constant- or texture-space load address depends on `ctaid`:
    /// different blocks walk the per-SM cache differently, so they are not
    /// interchangeable on an SM. When this is *false* (and the kernel is
    /// data-independent) every block issues the same cached-space addresses
    /// — the property the witness check then verifies per load at run time.
    pub ctaid_cached_addr: bool,
    /// The kernel reads constant memory (per-SM constant cache).
    pub uses_const: bool,
    /// The kernel reads texture memory (per-SM texture cache).
    pub uses_tex: bool,
}

impl TaintSummary {
    /// True when the timing of a block is a pure function of its geometry
    /// (`ctaid`, `tid`), the kernel parameters, and the machine config —
    /// never of the values loaded from memory.
    pub fn timing_data_independent(&self) -> bool {
        !self.tainted_branch && !self.tainted_address
    }
}

/// Taint-lattice bits carried per register and per poisoned space.
const DATA: u8 = 1;
const CTAID: u8 = 2;

/// Per-program-point taint state.
#[derive(Clone, PartialEq, Eq)]
struct TState {
    regs: Vec<u8>,
    smem: u8,
    local: u8,
}

impl TState {
    fn join_from(&mut self, other: &TState) -> bool {
        let mut changed = false;
        for (a, b) in self.regs.iter_mut().zip(&other.regs) {
            if *b & !*a != 0 {
                *a |= *b;
                changed = true;
            }
        }
        if other.smem & !self.smem != 0 {
            self.smem |= other.smem;
            changed = true;
        }
        if other.local & !self.local != 0 {
            self.local |= other.local;
            changed = true;
        }
        changed
    }

    fn operand(&self, op: &Operand) -> u8 {
        match op {
            Operand::Reg(r) => self.regs[r.0 as usize],
            Operand::Special(SpecialReg::CtaidX | SpecialReg::CtaidY) => CTAID,
            // Immediates, params, and the remaining specials (tid, block and
            // grid dimensions) are identical across the blocks of a launch.
            _ => 0,
        }
    }
}

/// Runs the taint fixpoint over a flat instruction stream.
///
/// The analysis is flow-sensitive: registers are reused after allocation,
/// so each definition performs a strong update, and states merge at
/// control-flow joins. Divergent execution is covered by the same join —
/// lanes that skip a region correspond to the CFG edge around it, so the
/// reconvergence-point state is the union of both paths.
pub fn analyze(code: &[Inst]) -> TaintSummary {
    let mut summary = TaintSummary::default();
    if code.is_empty() {
        return summary;
    }
    let nregs = code
        .iter()
        .flat_map(|i| i.def().into_iter().chain(i.uses()))
        .map(|r| r.0 as usize + 1)
        .max()
        .unwrap_or(0);
    let empty = TState {
        regs: vec![0; nregs],
        smem: 0,
        local: 0,
    };
    // Entry state per instruction; None = not yet reached.
    let mut states: Vec<Option<TState>> = vec![None; code.len()];
    states[0] = Some(empty);
    let mut work = vec![0usize];

    while let Some(pc) = work.pop() {
        let inst = &code[pc];
        let mut out = states[pc].clone().expect("queued without state");

        // Timing-channel checks at this point.
        match inst {
            Inst::Ld { space, addr, .. } | Inst::St { space, addr, .. } => {
                let t = out.operand(addr);
                if t & DATA != 0 {
                    summary.tainted_address = true;
                }
                if t & CTAID != 0 {
                    match space {
                        Space::Shared => summary.ctaid_shared_addr = true,
                        Space::Const | Space::Tex => summary.ctaid_cached_addr = true,
                        Space::Global | Space::Local => {}
                    }
                }
            }
            Inst::Atom { addr, .. } if out.operand(addr) & DATA != 0 => {
                summary.tainted_address = true;
            }
            Inst::Bra { pred: Some(p), .. } => {
                let t = out.regs[p.reg.0 as usize];
                if t & DATA != 0 {
                    summary.tainted_branch = true;
                }
                if t & CTAID != 0 {
                    summary.ctaid_branch = true;
                }
            }
            _ => {}
        }

        // Transfer: compute the taint of the defined value (if any) and the
        // per-space poison bits.
        let def_taint = match inst {
            Inst::Ld { space, .. } => match space {
                // Global memory holds unknown input data (which moreover
                // varies with the block that addressed it), and so do the
                // constant bank and a bound texture; the cached spaces are
                // additionally reported via `uses_*`.
                Space::Global => DATA | CTAID,
                Space::Const => {
                    summary.uses_const = true;
                    DATA | CTAID
                }
                Space::Tex => {
                    summary.uses_tex = true;
                    DATA | CTAID
                }
                Space::Shared => out.smem,
                Space::Local => out.local,
            },
            Inst::Atom { .. } => {
                summary.has_atomic = true;
                DATA | CTAID
            }
            Inst::St {
                space, addr, src, ..
            } => {
                // Storing tainted data (or through a tainted address, which
                // may alias anything in the space) poisons the space.
                let poison = out.operand(src) | out.operand(addr);
                match space {
                    Space::Shared => out.smem |= poison,
                    Space::Local => out.local |= poison,
                    _ => {}
                }
                0
            }
            // Pure ops: dst tainted iff any source is.
            _ => {
                let mut any = 0;
                inst.for_each_use(|op| any |= out.operand(op));
                any
            }
        };
        if let Some(d) = inst.def() {
            out.regs[d.0 as usize] = def_taint; // strong update
        }

        // Propagate to successors.
        let mut push = |succ: usize, work: &mut Vec<usize>| {
            if succ >= code.len() {
                return;
            }
            let changed = match &mut states[succ] {
                Some(s) => s.join_from(&out),
                slot @ None => {
                    *slot = Some(out.clone());
                    true
                }
            };
            if changed && !work.contains(&succ) {
                work.push(succ);
            }
        };
        match inst {
            Inst::Exit => {}
            Inst::Bra { target, pred, .. } => {
                push(target.0 as usize, &mut work);
                if pred.is_some() {
                    push(pc + 1, &mut work);
                }
            }
            _ => push(pc + 1, &mut work),
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{KernelBuilder, Unroll};
    use crate::inst::{AtomOp, CmpOp, Pred, Scalar};

    /// Streaming kernel: addresses from tid/ctaid/params only.
    #[test]
    fn streaming_kernel_is_independent() {
        let mut b = KernelBuilder::new("stream");
        let p = b.param();
        let tid = b.tid_x();
        let byte = b.shl(tid, 2u32);
        let a = b.iadd(byte, p);
        let v = b.ld_global(a, 0);
        let w = b.fmul(v, 2.0f32);
        b.st_global(a, 0, w);
        let k = b.build();
        let s = analyze(&k.code);
        assert!(s.timing_data_independent(), "{s:?}");
        assert!(!s.has_atomic && !s.uses_const && !s.uses_tex);
    }

    /// Loaded value used as an address: timing depends on data.
    #[test]
    fn data_dependent_address_is_flagged() {
        let mut b = KernelBuilder::new("gather");
        let p = b.param();
        let tid = b.tid_x();
        let byte = b.shl(tid, 2u32);
        let a = b.iadd(byte, p);
        let idx = b.ld_global(a, 0); // data
        let byte2 = b.shl(idx, 2u32); // tainted
        let a2 = b.iadd(byte2, p);
        let v = b.ld_global(a2, 0); // tainted address
        b.st_global(a, 0, v);
        let k = b.build();
        let s = analyze(&k.code);
        assert!(s.tainted_address, "{s:?}");
        assert!(!s.timing_data_independent());
    }

    /// Taint must flow through shared memory: store data, reload it, branch.
    #[test]
    fn taint_flows_through_shared_memory() {
        let mut b = KernelBuilder::new("smem_flow");
        let p = b.param();
        b.shared_alloc(64);
        let tid = b.tid_x();
        let byte = b.shl(tid, 2u32);
        let a = b.iadd(byte, p);
        let v = b.ld_global(a, 0); // data
        b.st_shared(byte, 0, v); // poisons shared
        b.bar();
        let w = b.ld_shared(byte, 0); // tainted again
        let pred = b.setp(CmpOp::Gt, Scalar::F32, w, 0.0f32);
        b.if_(Pred::if_true(pred), |b| {
            b.st_global(a, 0, 1.0f32);
        });
        let k = b.build();
        let s = analyze(&k.code);
        assert!(s.tainted_branch, "{s:?}");
        assert!(!s.timing_data_independent());
    }

    /// Atomics and cached spaces are reported for the sim-side policy.
    #[test]
    fn atomics_and_cached_spaces_reported() {
        let mut b = KernelBuilder::new("atom");
        let p = b.param();
        let tid = b.tid_x();
        let byte = b.shl(tid, 2u32);
        let a = b.iadd(byte, p);
        b.atom(AtomOp::Add, crate::inst::Space::Global, a, 0, tid);
        let k = b.build();
        assert!(analyze(&k.code).has_atomic);
    }

    /// The MRI/CP shape: constant addresses from a loop counter, an
    /// immediate, or `tid` are the same in every block of a launch.
    #[test]
    fn block_invariant_cached_addresses_are_ctaid_free() {
        let mut b = KernelBuilder::new("const_walk");
        let p = b.param();
        let n = b.param();
        let tid = b.tid_x();
        let cta = b.ctaid_x();
        let ntid = b.ntid_x();
        let i = b.imad(cta, ntid, tid);
        let byte = b.shl(i, 2u32);
        let ga = b.iadd(byte, p); // global address: ctaid-derived, fine
        let acc = b.ld_const(16u32, 0); // immediate address
        let lane_byte = b.shl(tid, 2u32);
        let per_lane = b.ld_const(lane_byte, 64); // tid-strided address
        b.ffma_to(acc, per_lane, per_lane, acc);
        b.for_range(0u32, n, 1, Unroll::None, |b, k| {
            let koff = b.shl(k, 2u32);
            let c = b.ld_const(koff, 0); // loop-counter address
            b.ffma_to(acc, c, c, acc);
        });
        b.st_global(ga, 0, acc);
        let k = b.build();
        let s = analyze(&k.code);
        assert!(s.timing_data_independent(), "{s:?}");
        assert!(s.uses_const && !s.uses_tex, "{s:?}");
        assert!(!s.ctaid_cached_addr, "{s:?}");
    }

    /// A constant or texture address derived from `ctaid` makes blocks walk
    /// the per-SM cache differently.
    #[test]
    fn ctaid_derived_cached_addresses_are_flagged() {
        for tex in [false, true] {
            let mut b = KernelBuilder::new("cached_by_block");
            let p = b.param();
            let tid = b.tid_x();
            let cta = b.ctaid_x();
            let coff = b.shl(cta, 2u32);
            let v = if tex {
                b.ld_tex(coff, 0)
            } else {
                b.ld_const(coff, 0)
            };
            let byte = b.shl(tid, 2u32);
            let ga = b.iadd(byte, p);
            b.st_global(ga, 0, v);
            let k = b.build();
            let s = analyze(&k.code);
            assert!(s.timing_data_independent(), "{s:?}"); // ctaid is not data
            assert!(s.ctaid_cached_addr, "tex={tex}: {s:?}");
            assert_eq!((s.uses_const, s.uses_tex), (!tex, tex), "{s:?}");
        }
    }

    /// A constant address computed from loaded data is data-dependent, like
    /// any other address — the cached-space bit does not launder it.
    #[test]
    fn data_derived_const_address_is_tainted() {
        let mut b = KernelBuilder::new("const_gather");
        let p = b.param();
        let tid = b.tid_x();
        let byte = b.shl(tid, 2u32);
        let ga = b.iadd(byte, p);
        let idx = b.ld_const(0u32, 0); // constant-bank *data*
        let coff = b.shl(idx, 2u32);
        let v = b.ld_const(coff, 0); // address from data
        b.st_global(ga, 0, v);
        let k = b.build();
        let s = analyze(&k.code);
        assert!(s.tainted_address, "{s:?}");
        assert!(!s.timing_data_independent());
    }

    /// Tiled-matmul shape: global addresses use ctaid, shared addresses use
    /// only tid — the shared access pattern is provably block-invariant.
    #[test]
    fn tid_indexed_shared_is_ctaid_free() {
        let mut b = KernelBuilder::new("tile");
        let p = b.param();
        b.shared_alloc(256);
        let tid = b.tid_x();
        let cta = b.ctaid_x();
        let ntid = b.ntid_x();
        let i = b.imad(cta, ntid, tid);
        let ga = b.shl(i, 2u32);
        let ga = b.iadd(ga, p);
        let v = b.ld_global(ga, 0);
        let sa = b.shl(tid, 2u32);
        b.st_shared(sa, 0, v);
        b.bar();
        let w = b.ld_shared(sa, 0);
        b.st_global(ga, 0, w);
        let k = b.build();
        let s = analyze(&k.code);
        assert!(s.timing_data_independent(), "{s:?}");
        assert!(!s.ctaid_shared_addr, "{s:?}");
        assert!(!s.ctaid_branch, "{s:?}");
    }

    /// A shared address derived from ctaid (and a branch on ctaid) must be
    /// flagged: blocks may differ in bank conflicts / paths.
    #[test]
    fn ctaid_dependent_shared_and_branch_flagged() {
        let mut b = KernelBuilder::new("skew");
        let p = b.param();
        b.shared_alloc(256);
        let tid = b.tid_x();
        let cta = b.ctaid_x();
        let skew = b.iadd(tid, cta);
        let lo = b.and(skew, 63u32);
        let sa = b.shl(lo, 2u32);
        b.st_shared(sa, 0, tid);
        let odd = b.and(cta, 1u32);
        let pr = b.setp(CmpOp::Ne, Scalar::U32, odd, 0u32);
        b.if_(Pred::if_true(pr), |b| {
            let ga = b.shl(tid, 2u32);
            let ga = b.iadd(ga, p);
            b.st_global(ga, 0, tid);
        });
        let k = b.build();
        let s = analyze(&k.code);
        assert!(s.timing_data_independent(), "{s:?}"); // ctaid is not data
        assert!(s.ctaid_shared_addr, "{s:?}");
        assert!(s.ctaid_branch, "{s:?}");
    }

    /// A branch on a launch constant (parameter) stays independent: loop
    /// trip counts driven by params are the common eligible case.
    #[test]
    fn param_driven_loop_is_independent() {
        let mut b = KernelBuilder::new("loop");
        let p = b.param();
        let n = b.param();
        let tid = b.tid_x();
        let byte = b.shl(tid, 2u32);
        let a = b.iadd(byte, p);
        let acc = b.mov(crate::inst::Operand::imm_f(0.0));
        b.for_range(0u32, n, 1, Unroll::None, |b, _i| {
            let v = b.ld_global(a, 0);
            let acc2 = b.ffma(v, v, acc);
            b.mov_to(acc, acc2);
        });
        b.st_global(a, 0, acc);
        let k = b.build();
        let s = analyze(&k.code);
        assert!(s.timing_data_independent(), "{s:?}");
    }
}
