//! Warp-level evaluator for the compiled engine's straight-line regions.
//!
//! When the scheduler issues the first instruction of a region
//! ([`Step::Enter`](g80_isa::compile::Step)), [`run_region`] applies the
//! *functional* effects of every instruction in the region — register row
//! writes and shared-memory traffic — in one pre-bound pass over the warp,
//! and records each instruction's timing aux (the shared-memory
//! bank-conflict degree; 0 for pure ops) into [`Warp::region_aux`]. The
//! scheduler then charges the interior instructions cheap timing-only steps
//! (`timed_step` in `sm.rs`) with no instruction interpretation at all.
//!
//! The evaluator runs under the mask the warp entered the region with:
//! regions never span a branch, barrier, or exit (see
//! [`g80_isa::compile`]), so the active mask is constant across the whole
//! region. Each op materializes its source rows before writing its
//! destination row — the same discipline as `Warp::operand_row` — so
//! destination/source aliasing behaves identically to the interpreted
//! engine.
//!
//! Row shapes thread straight through the pre-lowered form: each op first
//! tries the same [`g80_isa::row`] fold the interpreted engine uses (under
//! a full mask, with `rows_enabled`), writing one `LaneRow` tag instead of
//! 32 lanes; shared accesses with affine address rows take the closed-form
//! bank-conflict degree.

use g80_isa::compile::{CompiledOp, Region, Src};
use g80_isa::exec::{self, Row};
use g80_isa::inst::SpecialReg;
use g80_isa::row::{self, for_each_affine_lane};
use g80_isa::{LaneRow, Value};

use crate::config::GpuConfig;
use crate::counters::RowCounters;
use crate::memory::smem_degree_affine;
use crate::sm::{shift_shape, smem_degree_scan};
use crate::warp::Warp;

/// The warp-invariant operand environment: everything a [`Src`] other than
/// a register can resolve to.
struct Sp<'a> {
    params: &'a [Value],
    tids: &'a [(u32, u32, u32)],
    tid_shape: [LaneRow; 3],
    ctaid: (u32, u32),
    ntid: (u32, u32, u32),
    nctaid: (u32, u32),
}

/// Materializes a pre-lowered source as a full 32-lane row. Mirrors
/// `Warp::operand_row`: copying the row out resolves the source kind once
/// per op and decouples sources from a destination row that may alias them.
/// Register sources read through their shape (the backing row of a
/// `Uniform`/`Affine` register is stale).
#[inline(always)]
fn src_row(regs: &[Value], shapes: &[LaneRow], sp: &Sp, s: Src) -> Row {
    match s {
        Src::Reg(base) => {
            let base = base as usize;
            match shapes[base / 32] {
                LaneRow::Full => *<&Row>::try_from(&regs[base..base + 32]).unwrap(),
                shape => {
                    let mut row = [Value::ZERO; 32];
                    shape.expand_into(&mut row);
                    row
                }
            }
        }
        Src::Imm(v) => [v; 32],
        Src::Param(i) => [sp.params[i as usize]; 32],
        Src::Special(r) => std::array::from_fn(|l| {
            let (tx, ty, tz) = sp.tids[l];
            Value::from_u32(match r {
                SpecialReg::TidX => tx,
                SpecialReg::TidY => ty,
                SpecialReg::TidZ => tz,
                SpecialReg::NtidX => sp.ntid.0,
                SpecialReg::NtidY => sp.ntid.1,
                SpecialReg::NtidZ => sp.ntid.2,
                SpecialReg::CtaidX => sp.ctaid.0,
                SpecialReg::CtaidY => sp.ctaid.1,
                SpecialReg::NctaidX => sp.nctaid.0,
                SpecialReg::NctaidY => sp.nctaid.1,
            })
        }),
    }
}

/// The shape of a pre-lowered source row (mirrors `Warp::operand_shape`).
#[inline(always)]
fn src_shape(shapes: &[LaneRow], sp: &Sp, s: Src) -> LaneRow {
    match s {
        Src::Reg(base) => shapes[(base as usize) / 32],
        Src::Imm(v) => LaneRow::Uniform(v),
        Src::Param(i) => LaneRow::Uniform(sp.params[i as usize]),
        Src::Special(r) => match r {
            SpecialReg::TidX => sp.tid_shape[0],
            SpecialReg::TidY => sp.tid_shape[1],
            SpecialReg::TidZ => sp.tid_shape[2],
            SpecialReg::NtidX => LaneRow::Uniform(Value::from_u32(sp.ntid.0)),
            SpecialReg::NtidY => LaneRow::Uniform(Value::from_u32(sp.ntid.1)),
            SpecialReg::NtidZ => LaneRow::Uniform(Value::from_u32(sp.ntid.2)),
            SpecialReg::CtaidX => LaneRow::Uniform(Value::from_u32(sp.ctaid.0)),
            SpecialReg::CtaidY => LaneRow::Uniform(Value::from_u32(sp.ctaid.1)),
            SpecialReg::NctaidX => LaneRow::Uniform(Value::from_u32(sp.nctaid.0)),
            SpecialReg::NctaidY => LaneRow::Uniform(Value::from_u32(sp.nctaid.1)),
        },
    }
}

/// A destination register's row, in place, materializing its shape first
/// (a subsequent masked write must preserve the shape-implied lanes).
#[inline(always)]
fn dst_row<'r>(regs: &'r mut [Value], shapes: &mut [LaneRow], base: u32) -> &'r mut Row {
    let base = base as usize;
    let row: &mut Row = (&mut regs[base..base + 32]).try_into().unwrap();
    let shape = &mut shapes[base / 32];
    if *shape != LaneRow::Full {
        (*shape).expand_into(row);
        *shape = LaneRow::Full;
    }
    row
}

/// Warp-level shared-memory bank-conflict degree, with fast paths for the
/// two access shapes that dominate real kernels — a half-warp broadcast
/// (one address) and a word-stride run (16 consecutive words touch each of
/// the 16 banks exactly once). Both shapes scan to degree 1 under the
/// general first-occurrence counter, so the early return is exact; every
/// other shape (and every non-16-bank config) falls through to the same
/// scan the interpreted engine runs.
#[inline]
fn warp_degree(cfg: &GpuConfig, addrs: &[u32; 32], mask: u32) -> u32 {
    if mask == u32::MAX && cfg.smem_banks == 16 {
        let fast = |half: &[u32]| {
            let b = half[0];
            half.iter().all(|&a| a == b)
                || half
                    .iter()
                    .enumerate()
                    .all(|(i, &a)| a == b.wrapping_add(4 * i as u32))
        };
        if fast(&addrs[..16]) && fast(&addrs[16..]) {
            return 1;
        }
    }
    smem_degree_scan(cfg, addrs, mask)
}

/// Runs a region's functional effects over `warp` and refills
/// `warp.region_aux` with one timing-aux word per instruction. Scoreboard,
/// statistics, and pc advancement are the per-instruction timing steps'
/// job — this function only touches registers, shared memory, the aux
/// buffer, and the row-shape tally.
pub(crate) fn run_region(
    region: &Region,
    warp: &mut Warp,
    smem: &mut [Value],
    params: &[Value],
    kernel_name: &str,
    cfg: &GpuConfig,
    rows: &mut RowCounters,
) {
    let mask = warp.active_mask();
    let fold = warp.rows_enabled && mask == u32::MAX;
    let Warp {
        regs,
        shapes,
        tids,
        tid_shape,
        ctaid,
        ntid,
        nctaid,
        region_aux,
        ..
    } = warp;
    let sp = Sp {
        params,
        tids,
        tid_shape: *tid_shape,
        ctaid: *ctaid,
        ntid: *ntid,
        nctaid: *nctaid,
    };
    region_aux.clear();
    for op in &region.ops {
        let mut aux = 0u32;
        match *op {
            CompiledOp::Alu { op, dst, a, b } => {
                if fold {
                    if let Some(shape) =
                        row::fold_alu(op, src_shape(shapes, &sp, a), src_shape(shapes, &sp, b))
                    {
                        shapes[(dst as usize) / 32] = shape;
                        rows.tally(&shape);
                        region_aux.push(aux);
                        continue;
                    }
                }
                rows.full += 1;
                let ar = src_row(regs, shapes, &sp, a);
                let br = src_row(regs, shapes, &sp, b);
                exec::eval_alu_row(op, &ar, &br, dst_row(regs, shapes, dst), mask);
            }
            CompiledOp::Ffma { dst, a, b, c } => {
                if fold {
                    if let Some(shape) = row::fold_ffma(
                        src_shape(shapes, &sp, a),
                        src_shape(shapes, &sp, b),
                        src_shape(shapes, &sp, c),
                    ) {
                        shapes[(dst as usize) / 32] = shape;
                        rows.tally(&shape);
                        region_aux.push(aux);
                        continue;
                    }
                }
                rows.full += 1;
                let ar = src_row(regs, shapes, &sp, a);
                let br = src_row(regs, shapes, &sp, b);
                let cr = src_row(regs, shapes, &sp, c);
                exec::eval_ffma_row(&ar, &br, &cr, dst_row(regs, shapes, dst), mask);
            }
            CompiledOp::Imad { dst, a, b, c } => {
                if fold {
                    if let Some(shape) = row::fold_imad(
                        src_shape(shapes, &sp, a),
                        src_shape(shapes, &sp, b),
                        src_shape(shapes, &sp, c),
                    ) {
                        shapes[(dst as usize) / 32] = shape;
                        rows.tally(&shape);
                        region_aux.push(aux);
                        continue;
                    }
                }
                rows.full += 1;
                let ar = src_row(regs, shapes, &sp, a);
                let br = src_row(regs, shapes, &sp, b);
                let cr = src_row(regs, shapes, &sp, c);
                exec::eval_imad_row(&ar, &br, &cr, dst_row(regs, shapes, dst), mask);
            }
            CompiledOp::Un { op, dst, a } => {
                if fold {
                    if let Some(shape) = row::fold_un(op, src_shape(shapes, &sp, a)) {
                        shapes[(dst as usize) / 32] = shape;
                        rows.tally(&shape);
                        region_aux.push(aux);
                        continue;
                    }
                }
                rows.full += 1;
                let ar = src_row(regs, shapes, &sp, a);
                exec::eval_un_row(op, &ar, dst_row(regs, shapes, dst), mask);
            }
            CompiledOp::Sfu { op, dst, a } => {
                if fold {
                    if let Some(shape) = row::fold_sfu(op, src_shape(shapes, &sp, a)) {
                        shapes[(dst as usize) / 32] = shape;
                        rows.tally(&shape);
                        region_aux.push(aux);
                        continue;
                    }
                }
                rows.full += 1;
                let ar = src_row(regs, shapes, &sp, a);
                exec::eval_sfu_row(op, &ar, dst_row(regs, shapes, dst), mask);
            }
            CompiledOp::SetP { op, ty, dst, a, b } => {
                if fold {
                    if let Some(shape) =
                        row::fold_cmp(op, ty, src_shape(shapes, &sp, a), src_shape(shapes, &sp, b))
                    {
                        shapes[(dst as usize) / 32] = shape;
                        rows.tally(&shape);
                        region_aux.push(aux);
                        continue;
                    }
                }
                rows.full += 1;
                let ar = src_row(regs, shapes, &sp, a);
                let br = src_row(regs, shapes, &sp, b);
                exec::eval_cmp_row(op, ty, &ar, &br, dst_row(regs, shapes, dst), mask);
            }
            CompiledOp::Sel { dst, c, a, b } => {
                if fold {
                    if let Some(shape) = row::fold_sel(
                        src_shape(shapes, &sp, c),
                        src_shape(shapes, &sp, a),
                        src_shape(shapes, &sp, b),
                    ) {
                        shapes[(dst as usize) / 32] = shape;
                        rows.tally(&shape);
                        region_aux.push(aux);
                        continue;
                    }
                }
                rows.full += 1;
                let cr = src_row(regs, shapes, &sp, c);
                let ar = src_row(regs, shapes, &sp, a);
                let br = src_row(regs, shapes, &sp, b);
                exec::eval_sel_row(&cr, &ar, &br, dst_row(regs, shapes, dst), mask);
            }
            CompiledOp::LdShared { dst, addr, off } => {
                if fold {
                    let ashape = shift_shape(src_shape(shapes, &sp, addr), off);
                    if let Some((base, stride, step)) = ashape.terms() {
                        if let Some(d) = smem_degree_affine(cfg, stride) {
                            rows.tally(&ashape);
                            let dr = dst_row(regs, shapes, dst);
                            for_each_affine_lane(base, stride, step, |l, a| {
                                let idx = (a / 4) as usize;
                                assert!(
                                    idx < smem.len(),
                                    "kernel {}: shared load out of bounds ({} >= {})",
                                    kernel_name,
                                    idx,
                                    smem.len()
                                );
                                dr[l] = smem[idx];
                            });
                            region_aux.push(d);
                            continue;
                        }
                    }
                }
                rows.full += 1;
                let ar = src_row(regs, shapes, &sp, addr);
                let mut addrs = [0u32; 32];
                for (l, a) in addrs.iter_mut().enumerate() {
                    *a = ar[l].as_u32().wrapping_add(off as u32);
                }
                aux = warp_degree(cfg, &addrs, mask);
                let dr = dst_row(regs, shapes, dst);
                for (l, &a) in addrs.iter().enumerate() {
                    if mask >> l & 1 == 1 {
                        let idx = (a / 4) as usize;
                        assert!(
                            idx < smem.len(),
                            "kernel {}: shared load out of bounds ({} >= {})",
                            kernel_name,
                            idx,
                            smem.len()
                        );
                        dr[l] = smem[idx];
                    }
                }
            }
            CompiledOp::StShared { addr, off, src } => {
                if fold {
                    let ashape = shift_shape(src_shape(shapes, &sp, addr), off);
                    if let Some((base, stride, step)) = ashape.terms() {
                        if let Some(d) = smem_degree_affine(cfg, stride) {
                            rows.tally(&ashape);
                            let srcs = src_row(regs, shapes, &sp, src);
                            for_each_affine_lane(base, stride, step, |l, a| {
                                let idx = (a / 4) as usize;
                                assert!(
                                    idx < smem.len(),
                                    "kernel {}: shared store out of bounds ({} >= {})",
                                    kernel_name,
                                    idx,
                                    smem.len()
                                );
                                smem[idx] = srcs[l];
                            });
                            region_aux.push(d);
                            continue;
                        }
                    }
                }
                rows.full += 1;
                let ar = src_row(regs, shapes, &sp, addr);
                let srcs = src_row(regs, shapes, &sp, src);
                let mut addrs = [0u32; 32];
                for (l, a) in addrs.iter_mut().enumerate() {
                    *a = ar[l].as_u32().wrapping_add(off as u32);
                }
                aux = warp_degree(cfg, &addrs, mask);
                for (l, &a) in addrs.iter().enumerate() {
                    if mask >> l & 1 == 1 {
                        let idx = (a / 4) as usize;
                        assert!(
                            idx < smem.len(),
                            "kernel {}: shared store out of bounds ({} >= {})",
                            kernel_name,
                            idx,
                            smem.len()
                        );
                        smem[idx] = srcs[l];
                    }
                }
            }
        }
        region_aux.push(aux);
    }
}
