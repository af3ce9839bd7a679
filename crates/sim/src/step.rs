//! One warp instruction's functional effect, for the timed engine
//! ([`crate::sm`]) and witness replay ([`crate::witness`]) alike: [`step`]
//! executes every instruction. It applies the effect — registers through
//! [`Warp::exec_reg_only`], memory through [`LaneAddrs`], [`load_const`],
//! [`load_tex`] and [`atom`], branch, barrier, exit — and reports what it
//! did ([`Did`]) or why it refused ([`Refusal`]). The timed engine times the
//! report and panics on a refusal; replay signs the report and fails on one.
//!
//! The memory path lives here too: an access's per-lane addresses, as a
//! shaped row's closed form or as expanded lanes, and the run form that
//! moves a warp row over any [`Words`] store. What those addresses cost is
//! [`crate::cost`]'s.

use crate::config::GpuConfig;
use crate::cost::{
    coalesce_affine_warp, coalesce_half_warp, half_warp, smem_degree_affine_warp,
    smem_degree_lanes, tex_line, HalfWarpAccess,
};
use crate::launch::Prepared;
use crate::memory::{DeviceMemory, Words};
use crate::warp::Warp;
use g80_isa::{eval_atom, AffineTerms, Inst, LaneRow, Operand, Row, Space, Value};
use std::ops::Range;

/// What [`step`] did with one instruction. It borrows the addresses from
/// the caller's [`Scratch`], so the report stays a few words.
pub(crate) enum Did<'a> {
    /// A register-only instruction: its result is in its destination.
    Reg,
    /// A load into the instruction's destination register; an atomic is a
    /// load if it has a destination, else a store.
    Load(Access<'a>),
    Store(Access<'a>),
    /// A branch: the lanes that took it, and whether they split the warp.
    Branch(u32, bool),
    /// The warp parked at a barrier.
    Barrier,
    /// The active lanes exited.
    Exit,
}

/// The addresses of one warp memory access, by space.
pub(crate) enum Access<'a> {
    Global(&'a LaneAddrs),
    Shared(&'a LaneAddrs),
    /// A local (spill) access by the lanes of this mask.
    Local(u32),
    /// A constant load's distinct addresses, in first-lane order.
    Const(&'a [u32]),
    /// A texture fetch's distinct lines (global byte addresses), likewise.
    Tex(&'a [u32]),
    /// An atomic by the lanes of this mask, in global memory or shared.
    Atomic(bool, u32),
}

/// Where [`step`] leaves an access's addresses for its report to borrow:
/// one per instruction, on the caller's stack.
#[derive(Default)]
pub(crate) struct Scratch {
    addrs: Option<LaneAddrs>,
    distinct: Option<[u32; 32]>,
}

/// Why [`step`] refused an instruction. It applied nothing but, for an
/// access outside its store, the lanes before the offending one.
pub(crate) enum Refusal {
    /// The first active lane's byte address outside device memory, the
    /// block's shared memory, or the constant bank.
    Global(u32),
    Shared(u32),
    Const(u32),
    DivergentBarrier,
    /// A store to the constant or texture space.
    ReadOnlyStore,
}

/// Executes `inst`, the next instruction of `warp`, over the block's shared
/// memory `smem` and the global store `global` (device memory, or replay's
/// write buffer). Operand rows are read in place or expanded into `tmp`,
/// rows the caller keeps across instructions; none is copied out. Inlined
/// into both callers: out of line, replay's calls cost `matmul_walk`
/// ≈ 20 %, as did a report holding the address rows by value (≈ 16 %),
/// hence [`Scratch`]. `REPLAY` selects replay's copy, which eligibility
/// keeps from atomics and texture fetches: compiled into it, their
/// out-of-line arms cost replay 6–19 %.
#[inline(always)]
pub(crate) fn step<'s, const REPLAY: bool, W: Words + ?Sized>(
    p: &Prepared,
    inst: Inst,
    warp: &mut Warp,
    smem: &mut [Value],
    global: &mut W,
    scratch: &'s mut Scratch,
    tmp: &mut [Row; 3],
) -> Result<Did<'s>, Refusal> {
    let params = p.spec.params;
    let mask = warp.active_mask();
    if warp.exec_reg_only(&inst, mask, params, tmp) {
        return Ok(Did::Reg);
    }
    let [t0, t1, _] = tmp;
    Ok(match inst {
        Inst::Ld {
            space,
            dst,
            addr,
            off,
        } => {
            let access = match space {
                Space::Global => {
                    let addrs = LaneAddrs::of(warp, mask, addr, off, params, t0);
                    let addrs = scratch.addrs.insert(addrs);
                    let row = warp.dst_row(dst.0, mask);
                    addrs.load(global, row).map_err(Refusal::Global)?;
                    Access::Global(addrs)
                }
                Space::Shared => {
                    let addrs = LaneAddrs::of(warp, mask, addr, off, params, t0);
                    let addrs = scratch.addrs.insert(addrs);
                    let row = warp.dst_row(dst.0, mask);
                    addrs.load(smem, row).map_err(Refusal::Shared)?;
                    Access::Shared(addrs)
                }
                Space::Local => {
                    warp.load_local(mask, dst.0, &addr_row(warp, addr, off, params, t0));
                    Access::Local(mask)
                }
                Space::Const => {
                    let distinct = scratch.distinct.insert([0u32; 32]);
                    let mem = p.spec.mem;
                    let n = load_const(warp, dst.0, addr, off, params, mem, distinct)
                        .map_err(Refusal::Const)?;
                    Access::Const(&distinct[..n])
                }
                Space::Tex if REPLAY => unreachable!("texture fetch in replay"),
                Space::Tex => Access::Tex(load_tex(p, inst, warp, scratch)),
            };
            warp.advance();
            Did::Load(access)
        }
        Inst::St {
            space,
            addr,
            off,
            src,
        } => {
            let srcs = warp.operand_row(src, params, t0);
            let access = match space {
                Space::Global => {
                    let addrs = LaneAddrs::of(warp, mask, addr, off, params, t1);
                    let addrs = scratch.addrs.insert(addrs);
                    addrs.store(global, srcs).map_err(Refusal::Global)?;
                    Access::Global(addrs)
                }
                Space::Shared => {
                    let addrs = LaneAddrs::of(warp, mask, addr, off, params, t1);
                    let addrs = scratch.addrs.insert(addrs);
                    addrs.store(smem, srcs).map_err(Refusal::Shared)?;
                    Access::Shared(addrs)
                }
                Space::Local => {
                    // A spill writes the warp it reads: copy its sources.
                    let (srcs, addrs) = (*srcs, addr_row(warp, addr, off, params, t1));
                    warp.store_local(mask, &addrs, &srcs);
                    Access::Local(mask)
                }
                Space::Const | Space::Tex => return Err(Refusal::ReadOnlyStore),
            };
            warp.advance();
            Did::Store(access)
        }
        Inst::Atom { .. } if REPLAY => unreachable!("atomic in replay"),
        Inst::Atom { .. } => atom(p, inst, warp, smem),
        Inst::Bra {
            target,
            reconv,
            pred,
        } => {
            let taken = match pred {
                None => mask,
                Some(q) => warp.taken_mask(q.reg.0, q.negate, mask),
            };
            let next_pc = warp.pc() + 1;
            let divergent = warp.take_branch(taken, target.0, reconv.0, next_pc);
            Did::Branch(taken, divergent)
        }
        Inst::Bar => {
            // Converged means a single divergence frame: lanes that exited
            // earlier are excluded from every frame, so comparing against
            // init_mask would wrongly reject legal barriers after
            // partial-warp exits.
            if warp.frames.len() != 1 {
                return Err(Refusal::DivergentBarrier);
            }
            warp.advance();
            warp.at_barrier = true;
            Did::Barrier
        }
        Inst::Exit => {
            warp.exit_lanes(mask);
            warp.settle();
            Did::Exit
        }
        _ => unreachable!("register-only instructions executed above"),
    })
}

/// Per-lane effective addresses of a memory instruction (the address
/// operand is resolved once for the whole warp, read in place or expanded
/// into `tmp`).
#[inline]
fn addr_row(warp: &Warp, addr_op: Operand, off: i32, params: &[Value], tmp: &mut Row) -> [u32; 32] {
    let row = warp.operand_row(addr_op, params, tmp);
    std::array::from_fn(|l| row[l].as_u32().wrapping_add(off as u32))
}

/// The terms of a memory instruction's per-lane effective-address row
/// (`operand + off`) when that row is shaped: the offset shifts the base and
/// preserves stride, step and period (so the row stays canonical). `None`
/// means no closed form — fall back to [`addr_row`].
#[inline(always)]
fn addr_terms(warp: &Warp, addr_op: Operand, off: i32, params: &[Value]) -> Option<AffineTerms> {
    let t = warp.operand_shape(addr_op, params).terms()?;
    Some(AffineTerms {
        base: t.base.wrapping_add(off as u32),
        ..t
    })
}

/// The per-lane addresses of one warp memory access, in the form [`step`]
/// moves its data by and both executors derive every timing signature
/// from — so the two cannot disagree on which path an access takes.
pub(crate) enum LaneAddrs {
    /// An undiverged warp with a shaped address row: the row's terms and
    /// the number of lanes that exist (`init_mask` is a lane prefix).
    Shaped(AffineTerms, u32),
    /// The expanded row plus the mask selecting its active lanes.
    Lanes([u32; 32], u32),
}

impl LaneAddrs {
    /// Resolves the address operand of the instruction `warp` is issuing
    /// under its active `mask`. Inlined so a shaped row stays in registers
    /// from the shape tag to the walk.
    #[inline(always)]
    pub(crate) fn of(
        warp: &Warp,
        mask: u32,
        addr_op: Operand,
        off: i32,
        params: &[Value],
        tmp: &mut Row,
    ) -> LaneAddrs {
        if mask == warp.init_mask {
            if let Some(t) = addr_terms(warp, addr_op, off, params) {
                // `init_mask` is a lane prefix: its ones are its trailing ones.
                return LaneAddrs::Shaped(t, mask.trailing_ones());
            }
        }
        LaneAddrs::Lanes(addr_row(warp, addr_op, off, params, tmp), mask)
    }

    /// A warp load: every active lane reads the word at its address into
    /// its lane of `dst`. `Err` is the address of the first active lane (in
    /// lane order) that `words` does not hold, the lanes before it loaded.
    ///
    /// A shaped row whose lanes step by 0 or 4 bytes within a run — the
    /// half-warp broadcast `As[ty][k]` and the consecutive words `Bs[k][tx]`
    /// and `B[k][col]` of principles P2/P3 — moves each run at once: one word
    /// read and a fill, or one range check and a contiguous copy. A run whose
    /// addresses wrap `u32`, or that `words` declines, walks its lanes one at
    /// a time, as does every other row; the walk and the run agree on every
    /// input (`memory::tests::affine_runs_match_the_lane_walk`).
    #[inline(always)]
    pub(crate) fn load<W: Words + ?Sized>(&self, words: &mut W, dst: &mut Row) -> Result<(), u32> {
        match *self {
            LaneAddrs::Shaped(ref t, live) => {
                for (lanes, a) in runs(t, live) {
                    let run = &mut dst[lanes];
                    match t.stride {
                        0 => run.fill(words.read_word(a).ok_or(a)?),
                        4 if !run_wraps(a, run.len()) && words.read_run(a / 4, run) => {}
                        stride => {
                            for (a, d) in lane_addrs(a, stride).zip(run) {
                                *d = words.read_word(a).ok_or(a)?;
                            }
                        }
                    }
                }
            }
            LaneAddrs::Lanes(ref addrs, mask) => {
                for (lane, &a) in addrs.iter().enumerate() {
                    if mask >> lane & 1 == 1 {
                        dst[lane] = words.read_word(a).ok_or(a)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// A warp store: every active lane writes its lane of `srcs` to the word
    /// at its address, in lane order — where lanes share a word, the last
    /// one's value stays. `Err` is the first active lane's address that
    /// `words` does not hold, the lanes before it written. The run form is
    /// [`Self::load`]'s; a broadcast run writes its last lane's value once.
    #[inline(always)]
    pub(crate) fn store<W: Words + ?Sized>(&self, words: &mut W, srcs: &Row) -> Result<(), u32> {
        fn write<W: Words + ?Sized>(words: &mut W, a: u32, v: Value) -> Result<(), u32> {
            words.write_word(a, v).then_some(()).ok_or(a)
        }
        match *self {
            LaneAddrs::Shaped(ref t, live) => {
                for (lanes, a) in runs(t, live) {
                    let run = &srcs[lanes];
                    match t.stride {
                        0 => write(words, a, run[run.len() - 1])?,
                        4 if !run_wraps(a, run.len()) && words.write_run(a / 4, run) => {}
                        stride => {
                            for (a, &v) in lane_addrs(a, stride).zip(run) {
                                write(words, a, v)?;
                            }
                        }
                    }
                }
            }
            LaneAddrs::Lanes(ref addrs, mask) => {
                for (lane, &a) in addrs.iter().enumerate() {
                    if mask >> lane & 1 == 1 {
                        write(words, a, srcs[lane])?;
                    }
                }
            }
        }
        Ok(())
    }

    /// CC 1.0 coalescing of the access's two half-warps: closed form for a
    /// shaped row, per-lane scan otherwise — equal on every input
    /// (`cost::tests::affine_closed_forms_match_scans`). A half with no
    /// active lane reports zero transactions.
    #[inline]
    pub(crate) fn coalesce(&self, cfg: &GpuConfig) -> [HalfWarpAccess; 2] {
        match *self {
            LaneAddrs::Shaped(ref t, live) => coalesce_affine_warp(cfg, t, live),
            LaneAddrs::Lanes(ref addrs, mask) => {
                [0, 1].map(|h| coalesce_half_warp(cfg, &half_warp(addrs, mask, h)))
            }
        }
    }

    /// Shared-memory bank-conflict degree of the access: the worse of its
    /// two half-warps, by closed form or scan as for [`Self::coalesce`].
    #[inline]
    pub(crate) fn smem_degree(&self, cfg: &GpuConfig) -> u32 {
        match *self {
            LaneAddrs::Shaped(ref t, live) => smem_degree_affine_warp(cfg, t, live),
            LaneAddrs::Lanes(ref addrs, mask) => smem_degree_lanes(cfg, addrs, mask),
        }
    }
}

/// The runs of the first `live` lanes of a shaped row: each run's lanes
/// (`p` of them, the last run of a partial warp cut short) and its first
/// lane's address, `step` on from the run before.
#[inline(always)]
fn runs(t: &AffineTerms, live: u32) -> impl Iterator<Item = (Range<usize>, u32)> {
    let (p, live, base, step) = (1usize << t.log2p, live as usize, t.base, t.step);
    (0..live).step_by(p).zip(0u32..).map(move |(l, r)| {
        (
            l..(l + p).min(live),
            base.wrapping_add(step.wrapping_mul(r)),
        )
    })
}

/// Whether `len` consecutive words from byte address `a` on wrap `u32`
/// (their word indices are then not consecutive).
#[inline(always)]
fn run_wraps(a: u32, len: usize) -> bool {
    a.checked_add(4 * (len as u32 - 1)).is_none()
}

/// The addresses of a run's lanes, `stride` apart from `a` on (wrapping).
#[inline(always)]
fn lane_addrs(a: u32, stride: u32) -> impl Iterator<Item = u32> {
    std::iter::successors(Some(a), move |a| Some(a.wrapping_add(stride)))
}

/// The functional half of one warp constant load: every active lane reads
/// its word into `dst`, and `distinct[..n]` receives the distinct addresses
/// in first-lane order — what the load serializes over and what a witness
/// signature fingerprints (an out-parameter: returning the 128-byte list by
/// value cost MRI-Q replay ≈ 15 %). An undiverged warp reading the one
/// address of a `Uniform` row is the broadcast closed form: one
/// constant-bank read and a `Uniform` result, as fast as a register read on
/// the hardware. `Err` is the first address outside the constant bank, with
/// nothing written.
fn load_const(
    warp: &mut Warp,
    dst: u32,
    addr: Operand,
    off: i32,
    params: &[Value],
    mem: &DeviceMemory,
    distinct: &mut [u32; 32],
) -> Result<usize, u32> {
    let mask = warp.active_mask();
    if mask == warp.init_mask {
        let terms = addr_terms(warp, addr, off, params);
        if let Some(a) = terms.filter(|t| t.is_uniform()).map(|t| t.base) {
            let v = mem.try_read_const(a).ok_or(a)?;
            warp.set_shape(dst, LaneRow::Uniform(v));
            distinct[0] = a;
            return Ok(1);
        }
    }
    let addrs = addr_row(warp, addr, off, params, &mut [Value::ZERO; 32]);
    let mut words = [Value::ZERO; 32];
    let mut n = 0;
    for (lane, &a) in addrs.iter().enumerate() {
        if mask >> lane & 1 == 1 {
            words[lane] = mem.try_read_const(a).ok_or(a)?;
            if !distinct[..n].contains(&a) {
                distinct[n] = a;
                n += 1;
            }
        }
    }
    let dst_row = warp.dst_row(dst, mask);
    for lane in 0..32 {
        if mask >> lane & 1 == 1 {
            dst_row[lane] = words[lane];
        }
    }
    Ok(n)
}

/// The functional half of one warp texture fetch: every active lane reads
/// its word of the bound window into the destination, and the distinct
/// lines, in first-lane order, go to `scratch`. Out of line, as is
/// [`atom`], and not in replay's copy of [`step`].
#[inline(never)]
fn load_tex<'s>(p: &Prepared, inst: Inst, warp: &mut Warp, scratch: &'s mut Scratch) -> &'s [u32] {
    let Inst::Ld { dst, addr, off, .. } = inst else {
        unreachable!("load_tex fetches textures")
    };
    debug_assert!(!p.dedup, "dedup witness on texture-cache load");
    let (cfg, mem, mask) = (p.cfg, p.spec.mem, warp.active_mask());
    let addrs = addr_row(warp, addr, off, p.spec.params, &mut [Value::ZERO; 32]);
    let dst_row = warp.dst_row(dst.0, mask);
    let (out, mut n) = (scratch.distinct.insert([0; 32]), 0);
    for lane in (0..32).filter(|lane| mask >> lane & 1 == 1) {
        let g = mem.tex_to_global(addrs[lane]);
        let line = tex_line(cfg, g);
        if !out[..n].contains(&line) {
            out[n] = line;
            n += 1;
        }
        dst_row[lane] = mem.read(g);
    }
    &out[..n]
}

/// One warp atomic: every active lane's read-modify-write of a global or
/// shared word, in lane order, the old value into its lane of the
/// destination, if any. Global atomics go to device memory directly: only
/// eligibility keeps them out of replay. An address outside memory panics.
#[inline(never)]
fn atom(p: &Prepared, inst: Inst, warp: &mut Warp, smem: &mut [Value]) -> Did<'static> {
    let Inst::Atom {
        op,
        space,
        dst,
        addr,
        off,
        src,
    } = inst
    else {
        unreachable!("atom executes atomics")
    };
    debug_assert!(!p.dedup, "dedup witness on atomic");
    let (params, mask) = (p.spec.params, warp.active_mask());
    let mut tmp = [Value::ZERO; 32];
    let addrs = addr_row(warp, addr, off, params, &mut tmp);
    let srcs = warp.operand_row(src, params, &mut tmp);
    let mut olds = [Value::ZERO; 32];
    for lane in (0..32).filter(|lane| mask >> lane & 1 == 1) {
        let (a, v) = (addrs[lane], srcs[lane]);
        olds[lane] = match space {
            Space::Global => p.spec.mem.atomic(op, a, v),
            Space::Shared => {
                let word = smem.get_mut((a / 4) as usize);
                let word = word.expect("shared atomic out of bounds");
                std::mem::replace(word, eval_atom(op, *word, v).0)
            }
            _ => panic!("atomics only on global/shared memory"),
        };
    }
    // The old values land once the sources, which `dst` may be, are read.
    if let Some(d) = dst {
        let row = warp.dst_row(d.0, mask);
        for lane in (0..32).filter(|lane| mask >> lane & 1 == 1) {
            row[lane] = olds[lane];
        }
    }
    warp.advance();
    let access = Access::Atomic(space == Space::Global, mask);
    match dst {
        Some(_) => Did::Load(access),
        None => Did::Store(access),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use g80_isa::Reg;

    /// One address for a broadcast (closed form or scan), first-lane-ordered
    /// distinct addresses otherwise, and for an address outside the bank the
    /// address itself with the destination untouched.
    #[test]
    fn load_const_lists_distinct_addresses_or_the_offender() {
        let mut mem = DeviceMemory::new(64);
        mem.const_bank = (100..116).collect();
        let addr = Operand::Reg(Reg(1));
        let prior = LaneRow::affine(7, 3, 0, 4);
        let warp = |addrs: LaneRow| {
            let mut w = Warp::new(0, 4, (32, 1, 1), (0, 0), (1, 1));
            w.set_shape(0, prior);
            w.set_shape(1, addrs);
            w
        };
        // Loads r0 under `mask`; `Ok` is the distinct-address list.
        let load = |w: &mut Warp, mask: u32| {
            if mask != u32::MAX {
                w.take_branch(mask, 1, 2, 1);
            }
            let mut distinct = [0u32; 32];
            load_const(w, 0, addr, 4, &[], &mem, &mut distinct).map(|n| distinct[..n].to_vec())
        };

        let mut w = warp(LaneRow::Uniform(Value(8)));
        assert_eq!(load(&mut w, u32::MAX).unwrap(), [12]);
        assert_eq!(w.shapes[0], LaneRow::Uniform(Value(103)));
        // Diverged, the same row takes the scan and finds the same address.
        let mut w = warp(LaneRow::Uniform(Value(8)));
        assert_eq!(load(&mut w, 0xff00).unwrap(), [12]);
        assert_eq!(
            (w.reg(0, 8), w.reg(0, 7)),
            (Value(103), prior.lane(7).unwrap())
        );

        // Words 5, 2, 5, 9 repeating; lane 0 inactive, so word 2 comes first.
        let mut w = warp(LaneRow::Uniform(Value::ZERO));
        *w.reg_row_mut(1) = std::array::from_fn(|l| Value(4 * [5, 2, 5, 9][l % 4] - 4));
        assert_eq!(load(&mut w, 0x0000_fffe).unwrap(), [8, 20, 36]);
        for lane in 0..32 {
            let want = match lane {
                1..16 => Value(100 + [5, 2, 5, 9][lane % 4]),
                _ => prior.lane(lane).unwrap(),
            };
            assert_eq!(w.reg(0, lane), want, "lane {lane}");
        }

        // Lane l reads word l % 24 + 1 of a 16-word bank: the first active
        // lane past word 15 is the offender, and no lane was written.
        for (mask, lane) in [(u32::MAX, 15), (0xfff0_0000, 20)] {
            let mut w = warp(LaneRow::Uniform(Value::ZERO));
            *w.reg_row_mut(1) = std::array::from_fn(|l| Value(4 * (l as u32 % 24)));
            assert_eq!(load(&mut w, mask).unwrap_err(), 4 * lane + 4);
            assert_eq!(w.shapes[0], prior);
        }
        let mut w = warp(LaneRow::Uniform(Value(4 * 16)));
        assert_eq!(load(&mut w, u32::MAX).unwrap_err(), 4 * 16 + 4);
        assert_eq!(w.shapes[0], prior);
    }
}
