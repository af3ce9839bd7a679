//! The **reference** timing engine: a frozen copy of the original
//! instruction-at-a-time scheduler, kept as the executable specification for
//! the predecoded engine in [`crate::sm`].
//!
//! This module is intentionally unoptimized: it rebuilds the warp schedule
//! every scheduler iteration, re-walks instruction operands on every
//! readiness check, allocates coalescing scratch per memory access, and
//! allocates fresh register files per block. The `golden_stats` integration
//! test (workspace root) runs kernels through both engines and asserts
//! field-for-field identical [`crate::KernelStats`]; any timing divergence in
//! the optimized engine fails against this spec. A context selects it with
//! `SimConfig { engine: Engine::Reference, .. }`. Its warps are built with
//! [`Warp::new_eager`], so no register ever carries a row-shape tag and
//! the spec shares none of the shape algebra it checks.
//!
//! Do not edit this engine except to fix a modeling bug — and then change
//! both engines in lockstep.
#![allow(clippy::too_many_arguments)] // load/store helpers mirror the instruction fields

use crate::config::GpuConfig;
use crate::counters::{SmStats, StallReason};
use crate::memory::{coalesce_half_warp, smem_conflict_degree, DeviceMemory, TagCache};
use crate::sm::LaunchDims;
use crate::warp::{RegSource, Warp};
use g80_isa::exec;
use g80_isa::inst::{AluOp, Inst, Operand, Space};
use g80_isa::{Kernel, Value};

struct Resident {
    warps: Vec<Warp>,
    smem: Vec<Value>,
}

impl Resident {
    fn new(cfg_regs: u32, kernel: &Kernel, dims: &LaunchDims, ctaid: (u32, u32)) -> Self {
        let warps_per_block = dims.threads_per_block().div_ceil(32);
        // The register *file* must cover every register the code names even
        // when the reported count was forced lower for an occupancy
        // ablation (Kernel::with_forced_regs): the report drives
        // scheduling, the code drives storage.
        let file_regs = cfg_regs.max(g80_isa::liveness::num_regs(&kernel.code) as u32);
        let warps = (0..warps_per_block)
            .map(|w| Warp::new_eager(w, file_regs, dims.block, ctaid, dims.grid))
            .collect();
        Resident {
            warps,
            smem: vec![Value::ZERO; (kernel.smem_bytes as usize).div_ceil(4)],
        }
    }

    fn all_done(&self) -> bool {
        self.warps.iter().all(|w| w.done)
    }
}

/// Simulates one SM over its assigned blocks with the reference engine.
/// Deterministic.
pub fn run_sm_reference(
    cfg: &GpuConfig,
    kernel: &Kernel,
    dims: &LaunchDims,
    params: &[Value],
    mem: &DeviceMemory,
    my_blocks: &[(u32, u32)],
    blocks_per_sm: u32,
    watchdog: u64,
) -> SmStats {
    // Same site as the predecoded engine: one probe per SM invocation.
    crate::fault::poll(crate::fault::Site::SmStep);

    let mut stats = SmStats::default();
    let mut queue = my_blocks.iter().copied();
    let mut resident: Vec<Resident> = Vec::new();
    for _ in 0..blocks_per_sm {
        if let Some(ctaid) = queue.next() {
            resident.push(Resident::new(kernel.regs_per_thread, kernel, dims, ctaid));
        }
    }

    let mut cycle: u64 = 0;
    let mut chan_free: u64 = 0;
    let mut const_cache = TagCache::new(cfg.const_cache_bytes, 64);
    let mut tex_cache = TagCache::new(cfg.tex_cache_bytes, cfg.tex_line_bytes);
    let mut rr: usize = 0;

    loop {
        if cycle >= watchdog {
            stats.cycles = cycle;
            crate::fault::watchdog_abort(&kernel.name, watchdog, cycle, stats.warp_instructions);
        }
        // Retire completed blocks, refill from the queue.
        let mut i = 0;
        while i < resident.len() {
            if resident[i].all_done() {
                stats.blocks_executed += 1;
                match queue.next() {
                    Some(ctaid) => {
                        resident[i] = Resident::new(kernel.regs_per_thread, kernel, dims, ctaid);
                        i += 1;
                    }
                    None => {
                        resident.remove(i);
                    }
                }
            } else {
                i += 1;
            }
        }
        if resident.is_empty() {
            break;
        }

        // Flatten the warp schedule.
        let order: Vec<(usize, usize)> = resident
            .iter()
            .enumerate()
            .flat_map(|(bi, r)| (0..r.warps.len()).map(move |wi| (bi, wi)))
            .collect();
        let n = order.len();

        // Scan for a ready warp, remembering the earliest future candidate.
        let mut issued = false;
        let mut best_next: u64 = u64::MAX;
        let mut best_reason = StallReason::Drain;
        for k in 0..n {
            let (bi, wi) = order[(rr + k) % n];
            let block = &mut resident[bi];
            let warp = &mut block.warps[wi];
            if warp.done || warp.at_barrier {
                continue;
            }
            if !warp.settle() {
                continue; // retired just now
            }
            let pc = warp.pc() as usize;
            let inst = &kernel.code[pc];
            let (reg_ready, gate) = inst_ready(warp, inst);
            // A post-barrier pipeline drain dominates register readiness:
            // attribute that wait to the barrier, not the ALU/memory.
            let barrier_gated = warp.resume_at > reg_ready;
            let ready_at = reg_ready.max(warp.resume_at);
            if ready_at <= cycle {
                let mut ctx = ExecCtx {
                    cfg,
                    kernel,
                    params,
                    mem,
                    stats: &mut stats,
                    chan_free: &mut chan_free,
                    const_cache: &mut const_cache,
                    tex_cache: &mut tex_cache,
                    cycle,
                };
                let dur = ctx.execute(block, wi);
                cycle += dur;
                rr = (rr + k + 1) % n;
                issued = true;

                // Barrier release: if every live warp of the block is now
                // parked, free them all. This must be checked both when a
                // warp parks AND when a warp exits — an exiting warp can be
                // the last one its parked siblings were waiting for.
                let block = &mut resident[bi];
                if block.warps[wi].at_barrier || block.warps[wi].done {
                    let any_parked = block.warps.iter().any(|w| w.at_barrier);
                    let all_parked = block.warps.iter().all(|w| w.done || w.at_barrier);
                    if any_parked && all_parked {
                        let resume = cycle + cfg.barrier_latency;
                        for w in block.warps.iter_mut() {
                            w.at_barrier = false;
                            w.resume_at = resume;
                        }
                    }
                }
                break;
            } else {
                let reason = if barrier_gated {
                    StallReason::Barrier
                } else {
                    match gate {
                        Some(RegSource::Memory) => StallReason::Memory,
                        Some(RegSource::Alu) => StallReason::AluDependency,
                        // Defensive: gate is None only when no register is
                        // pending, and then the wait is a barrier drain
                        // (handled above) — this arm is unreachable today.
                        None => StallReason::IssueBusy,
                    }
                };
                if ready_at < best_next {
                    best_next = ready_at;
                    best_reason = reason;
                }
            }
        }

        if issued {
            continue;
        }

        if best_next == u64::MAX {
            // Every live warp is parked at a barrier but the block never
            // filled — or warps retired during the scan; re-run the retire
            // loop. A genuine deadlock (divergent barrier) is a kernel bug.
            let any_live = resident
                .iter()
                .any(|b| b.warps.iter().any(|w| !w.done && !w.at_barrier));
            let all_done = resident.iter().all(|b| b.all_done());
            if !any_live && !all_done {
                panic!(
                    "kernel {}: deadlock — all warps parked at a barrier",
                    kernel.name
                );
            }
            continue;
        }

        // Nothing ready: event-skip to the earliest candidate.
        let skip = best_next.saturating_sub(cycle).max(1);
        stats.stall(best_reason, skip);
        cycle += skip;
    }

    stats.cycles = cycle;
    stats
}

/// (earliest cycle at which the instruction's registers are ready, the
/// source kind of the gating register).
fn inst_ready(warp: &Warp, inst: &Inst) -> (u64, Option<RegSource>) {
    // Allocation-free: this runs on every readiness check of the scheduler's
    // inner scan, the hottest path in the simulator.
    let mut t = 0u64;
    let mut gate = None;
    let mut consider = |r: u32| {
        let ready = warp.reg_ready[r as usize];
        if ready > t {
            t = ready;
            gate = Some(warp.reg_source[r as usize]);
        }
    };
    // (for_each_use covers branch predicates too)
    inst.for_each_use(|op| {
        if let g80_isa::Operand::Reg(r) = op {
            consider(r.0);
        }
    });
    if let Some(d) = inst.def() {
        consider(d.0); // WAW hazard
    }
    (t, gate)
}

struct ExecCtx<'a> {
    cfg: &'a GpuConfig,
    kernel: &'a Kernel,
    params: &'a [Value],
    mem: &'a DeviceMemory,
    stats: &'a mut SmStats,
    chan_free: &'a mut u64,
    const_cache: &'a mut TagCache,
    tex_cache: &'a mut TagCache,
    cycle: u64,
}

/// Builds the two half-warp address arrays for the active lanes.
fn half_warp_addrs(
    warp: &Warp,
    addr_op: Operand,
    off: i32,
    params: &[Value],
) -> ([Option<u32>; 16], [Option<u32>; 16]) {
    let mut lo = [None; 16];
    let mut hi = [None; 16];
    for lane in warp.active_lanes() {
        let a = warp
            .operand(addr_op, lane, params)
            .as_u32()
            .wrapping_add(off as u32);
        if lane < 16 {
            lo[lane] = Some(a);
        } else {
            hi[lane - 16] = Some(a);
        }
    }
    (lo, hi)
}

impl<'a> ExecCtx<'a> {
    /// Issues a global-memory request of `bytes` through this SM's channel
    /// slice; returns the completion cycle.
    fn memory_request(&mut self, bytes: u64) -> u64 {
        let bpc = self.cfg.dram_bytes_per_cycle_per_sm();
        let start = self.cycle.max(*self.chan_free);
        let service = (bytes as f64 / bpc).ceil() as u64;
        *self.chan_free = start + service;
        start + self.cfg.global_latency
    }

    /// Executes the next instruction of warp `wi` in `block`. Returns the
    /// issue-port occupancy in cycles.
    fn execute(&mut self, block: &mut Resident, wi: usize) -> u64 {
        let cfg = self.cfg;
        let smem_len = block.smem.len();
        let warp = &mut block.warps[wi];
        let pc = warp.pc() as usize;
        let inst = self.kernel.code[pc];
        let mask = warp.active_mask();
        let lanes = mask.count_ones();
        self.stats.count_inst(inst.class(), lanes, inst.flops());

        let alu_done = self.cycle + cfg.alu_latency;
        match inst {
            Inst::Alu { op, dst, a, b } => {
                for lane in 0..32 {
                    if mask >> lane & 1 == 1 {
                        let av = warp.operand(a, lane, self.params);
                        let bv = warp.operand(b, lane, self.params);
                        warp.set_reg(dst.0, lane, exec::eval_alu(op, av, bv));
                    }
                }
                warp.reg_ready[dst.0 as usize] = alu_done;
                warp.reg_source[dst.0 as usize] = RegSource::Alu;
                warp.advance();
                if matches!(op, AluOp::IMul) {
                    cfg.imul_issue_cycles
                } else {
                    cfg.issue_cycles
                }
            }
            Inst::Ffma { dst, a, b, c } => {
                for lane in 0..32 {
                    if mask >> lane & 1 == 1 {
                        let av = warp.operand(a, lane, self.params);
                        let bv = warp.operand(b, lane, self.params);
                        let cv = warp.operand(c, lane, self.params);
                        warp.set_reg(dst.0, lane, exec::eval_ffma(av, bv, cv));
                    }
                }
                warp.reg_ready[dst.0 as usize] = alu_done;
                warp.reg_source[dst.0 as usize] = RegSource::Alu;
                warp.advance();
                cfg.issue_cycles
            }
            Inst::Imad { dst, a, b, c } => {
                for lane in 0..32 {
                    if mask >> lane & 1 == 1 {
                        let av = warp.operand(a, lane, self.params);
                        let bv = warp.operand(b, lane, self.params);
                        let cv = warp.operand(c, lane, self.params);
                        warp.set_reg(dst.0, lane, exec::eval_imad(av, bv, cv));
                    }
                }
                warp.reg_ready[dst.0 as usize] = alu_done;
                warp.reg_source[dst.0 as usize] = RegSource::Alu;
                warp.advance();
                cfg.imul_issue_cycles
            }
            Inst::Un { op, dst, a } => {
                for lane in 0..32 {
                    if mask >> lane & 1 == 1 {
                        let av = warp.operand(a, lane, self.params);
                        warp.set_reg(dst.0, lane, exec::eval_un(op, av));
                    }
                }
                warp.reg_ready[dst.0 as usize] = alu_done;
                warp.reg_source[dst.0 as usize] = RegSource::Alu;
                warp.advance();
                cfg.issue_cycles
            }
            Inst::Sfu { op, dst, a } => {
                for lane in 0..32 {
                    if mask >> lane & 1 == 1 {
                        let av = warp.operand(a, lane, self.params);
                        warp.set_reg(dst.0, lane, exec::eval_sfu(op, av));
                    }
                }
                warp.reg_ready[dst.0 as usize] = self.cycle + cfg.sfu_latency;
                warp.reg_source[dst.0 as usize] = RegSource::Alu;
                warp.advance();
                cfg.sfu_issue_cycles
            }
            Inst::SetP { op, ty, dst, a, b } => {
                for lane in 0..32 {
                    if mask >> lane & 1 == 1 {
                        let av = warp.operand(a, lane, self.params);
                        let bv = warp.operand(b, lane, self.params);
                        warp.set_reg(dst.0, lane, exec::eval_cmp(op, ty, av, bv));
                    }
                }
                warp.reg_ready[dst.0 as usize] = alu_done;
                warp.reg_source[dst.0 as usize] = RegSource::Alu;
                warp.advance();
                cfg.issue_cycles
            }
            Inst::Sel { dst, c, a, b } => {
                for lane in 0..32 {
                    if mask >> lane & 1 == 1 {
                        let cv = warp.operand(c, lane, self.params);
                        let v = if cv.as_bool() {
                            warp.operand(a, lane, self.params)
                        } else {
                            warp.operand(b, lane, self.params)
                        };
                        warp.set_reg(dst.0, lane, v);
                    }
                }
                warp.reg_ready[dst.0 as usize] = alu_done;
                warp.reg_source[dst.0 as usize] = RegSource::Alu;
                warp.advance();
                cfg.issue_cycles
            }
            Inst::Ld {
                space,
                dst,
                addr,
                off,
            } => {
                let dur = self.do_load(block, wi, space, dst.0, addr, off, smem_len);
                block.warps[wi].advance();
                dur
            }
            Inst::St {
                space,
                addr,
                off,
                src,
            } => {
                let dur = self.do_store(block, wi, space, addr, off, src, smem_len);
                block.warps[wi].advance();
                dur
            }
            Inst::Atom {
                op,
                space,
                dst,
                addr,
                off,
                src,
            } => {
                let (warps, smem) = (&mut block.warps, &mut block.smem);
                let warp = &mut warps[wi];
                let completion;
                match space {
                    Space::Global => {
                        let mut bytes = 0u64;
                        for lane in 0..32 {
                            if mask >> lane & 1 == 1 {
                                let a = warp
                                    .operand(addr, lane, self.params)
                                    .as_u32()
                                    .wrapping_add(off as u32);
                                let s = warp.operand(src, lane, self.params);
                                let old = self.mem.atomic(op, a, s);
                                if let Some(d) = dst {
                                    warp.set_reg(d.0, lane, old);
                                }
                                bytes += cfg.uncoalesced_txn_bytes as u64;
                                self.stats.atomic_transactions += 1;
                            }
                        }
                        self.stats.global_bytes += bytes;
                        completion = self.memory_request(bytes);
                    }
                    Space::Shared => {
                        for lane in 0..32 {
                            if mask >> lane & 1 == 1 {
                                let a = warp
                                    .operand(addr, lane, self.params)
                                    .as_u32()
                                    .wrapping_add(off as u32);
                                let idx = (a / 4) as usize;
                                assert!(idx < smem_len, "shared atomic out of bounds");
                                let s = warp.operand(src, lane, self.params);
                                let (new, old) = exec::eval_atom(op, smem[idx], s);
                                smem[idx] = new;
                                if let Some(d) = dst {
                                    warp.set_reg(d.0, lane, old);
                                }
                                self.stats.atomic_transactions += 1;
                            }
                        }
                        completion = self.cycle + cfg.smem_latency;
                    }
                    _ => panic!("atomics only on global/shared memory"),
                }
                if let Some(d) = dst {
                    warp.reg_ready[d.0 as usize] = completion;
                    warp.reg_source[d.0 as usize] = RegSource::Memory;
                }
                warp.advance();
                // Atomics serialize per distinct address; charge per lane.
                cfg.issue_cycles + 2 * (lanes.saturating_sub(1)) as u64
            }
            Inst::Bra {
                target,
                reconv,
                pred,
            } => {
                let warp = &mut block.warps[wi];
                let next_pc = pc as u32 + 1;
                match pred {
                    None => {
                        let m = warp.active_mask();
                        warp.take_branch(m, target.0, reconv.0, next_pc);
                    }
                    Some(p) => {
                        let mut taken = 0u32;
                        for lane in 0..32 {
                            if mask >> lane & 1 == 1 {
                                let v = warp.reg(p.reg.0, lane).as_bool();
                                if v != p.negate {
                                    taken |= 1 << lane;
                                }
                            }
                        }
                        if warp.take_branch(taken, target.0, reconv.0, next_pc) {
                            self.stats.divergent_branches += 1;
                        }
                    }
                }
                cfg.issue_cycles
            }
            Inst::Bar => {
                let warp = &mut block.warps[wi];
                // Converged means a single divergence frame: lanes that
                // exited earlier are excluded from every frame, so comparing
                // against init_mask would wrongly reject legal barriers after
                // partial-warp exits.
                assert_eq!(
                    warp.frames.len(),
                    1,
                    "kernel {}: __syncthreads() in divergent control flow",
                    self.kernel.name
                );
                warp.advance();
                warp.at_barrier = true;
                cfg.issue_cycles
            }
            Inst::Exit => {
                let warp = &mut block.warps[wi];
                let m = warp.active_mask();
                warp.exit_lanes(m);
                warp.settle();
                cfg.issue_cycles
            }
        }
    }

    fn do_load(
        &mut self,
        block: &mut Resident,
        wi: usize,
        space: Space,
        dst: u32,
        addr: Operand,
        off: i32,
        smem_len: usize,
    ) -> u64 {
        let cfg = self.cfg;
        let (warps, smem) = (&mut block.warps, &block.smem);
        let warp = &mut warps[wi];
        let mask = warp.active_mask();
        match space {
            Space::Global => {
                let (lo, hi) = half_warp_addrs(warp, addr, off, self.params);
                let mut bytes = 0u64;
                for half in [&lo, &hi] {
                    let acc = coalesce_half_warp(cfg, half);
                    if acc.transactions > 0 {
                        if acc.coalesced {
                            self.stats.coalesced_half_warps += 1;
                        } else {
                            self.stats.uncoalesced_half_warps += 1;
                        }
                        self.stats.global_ld_transactions += acc.transactions as u64;
                        bytes += acc.bytes;
                    }
                }
                self.stats.global_bytes += bytes;
                for lane in 0..32 {
                    if mask >> lane & 1 == 1 {
                        let a = warp
                            .operand(addr, lane, self.params)
                            .as_u32()
                            .wrapping_add(off as u32);
                        let v = self.mem.read(a);
                        warp.set_reg(dst, lane, v);
                    }
                }
                let done = self.memory_request(bytes);
                warp.reg_ready[dst as usize] = done;
                warp.reg_source[dst as usize] = RegSource::Memory;
                cfg.issue_cycles
            }
            Space::Shared => {
                let (lo, hi) = half_warp_addrs(warp, addr, off, self.params);
                let degree = smem_conflict_degree(cfg, &lo).max(smem_conflict_degree(cfg, &hi));
                let extra = cfg.issue_cycles * (degree as u64 - 1);
                self.stats.smem_conflict_extra_cycles += extra;
                for lane in 0..32 {
                    if mask >> lane & 1 == 1 {
                        let a = warp
                            .operand(addr, lane, self.params)
                            .as_u32()
                            .wrapping_add(off as u32);
                        let idx = (a / 4) as usize;
                        assert!(
                            idx < smem_len,
                            "kernel {}: shared load out of bounds ({} >= {})",
                            self.kernel.name,
                            idx,
                            smem_len
                        );
                        let v = smem[idx];
                        warp.set_reg(dst, lane, v);
                    }
                }
                warp.reg_ready[dst as usize] = self.cycle + cfg.smem_latency + extra;
                warp.reg_source[dst as usize] = RegSource::Alu;
                cfg.issue_cycles + extra
            }
            Space::Const => {
                // Distinct addresses within the warp serialize; each line
                // goes through the per-SM constant cache. A broadcast (one
                // address) is as fast as a register read.
                let mut distinct: Vec<u32> = Vec::new();
                for lane in 0..32 {
                    if mask >> lane & 1 == 1 {
                        let a = warp
                            .operand(addr, lane, self.params)
                            .as_u32()
                            .wrapping_add(off as u32);
                        if !distinct.contains(&a) {
                            distinct.push(a);
                        }
                        let v = self.mem.read_const(a);
                        warp.set_reg(dst, lane, v);
                    }
                }
                let mut miss_bytes = 0u64;
                for &a in &distinct {
                    if self.const_cache.access(a) {
                        self.stats.const_hits += 1;
                    } else {
                        self.stats.const_misses += 1;
                        miss_bytes += 64;
                    }
                }
                let ready = if miss_bytes > 0 {
                    self.stats.global_bytes += miss_bytes;
                    self.memory_request(miss_bytes)
                } else {
                    self.cycle + cfg.const_hit_latency
                };
                warp.reg_ready[dst as usize] = ready;
                warp.reg_source[dst as usize] = if miss_bytes > 0 {
                    RegSource::Memory
                } else {
                    RegSource::Alu
                };
                // Serialization beyond the broadcast case.
                let ser = (distinct.len().max(1) as u64 - 1) * 2;
                cfg.issue_cycles + ser
            }
            Space::Tex => {
                let mut lines: Vec<u32> = Vec::new();
                for lane in 0..32 {
                    if mask >> lane & 1 == 1 {
                        let a = warp
                            .operand(addr, lane, self.params)
                            .as_u32()
                            .wrapping_add(off as u32);
                        let g = self.mem.tex_to_global(a);
                        let line = g / cfg.tex_line_bytes;
                        if !lines.contains(&line) {
                            lines.push(line);
                        }
                        let v = self.mem.read(g);
                        warp.set_reg(dst, lane, v);
                    }
                }
                let mut miss_bytes = 0u64;
                for &line in &lines {
                    if self.tex_cache.access(line * cfg.tex_line_bytes) {
                        self.stats.tex_hits += 1;
                    } else {
                        self.stats.tex_misses += 1;
                        miss_bytes += cfg.tex_line_bytes as u64;
                    }
                }
                let ready = if miss_bytes > 0 {
                    self.stats.global_bytes += miss_bytes;
                    self.stats.global_ld_transactions +=
                        (miss_bytes / cfg.tex_line_bytes as u64).max(1);
                    self.memory_request(miss_bytes)
                } else {
                    self.cycle + cfg.tex_hit_latency
                };
                warp.reg_ready[dst as usize] = ready;
                warp.reg_source[dst as usize] = RegSource::Memory;
                cfg.issue_cycles
            }
            Space::Local => {
                let mut bytes = 0u64;
                for lane in 0..32 {
                    if mask >> lane & 1 == 1 {
                        let a = warp
                            .operand(addr, lane, self.params)
                            .as_u32()
                            .wrapping_add(off as u32);
                        let v = warp.local_read(lane, a);
                        warp.set_reg(dst, lane, v);
                        bytes += cfg.uncoalesced_txn_bytes as u64;
                    }
                }
                self.stats.global_bytes += bytes;
                self.stats.global_ld_transactions += mask.count_ones() as u64;
                let done = self.memory_request(bytes);
                warp.reg_ready[dst as usize] = done;
                warp.reg_source[dst as usize] = RegSource::Memory;
                cfg.issue_cycles
            }
        }
    }

    fn do_store(
        &mut self,
        block: &mut Resident,
        wi: usize,
        space: Space,
        addr: Operand,
        off: i32,
        src: Operand,
        smem_len: usize,
    ) -> u64 {
        let cfg = self.cfg;
        let warp = &mut block.warps[wi];
        let mask = warp.active_mask();
        match space {
            Space::Global => {
                let (lo, hi) = half_warp_addrs(warp, addr, off, self.params);
                let mut bytes = 0u64;
                for half in [&lo, &hi] {
                    let acc = coalesce_half_warp(cfg, half);
                    if acc.transactions > 0 {
                        if acc.coalesced {
                            self.stats.coalesced_half_warps += 1;
                        } else {
                            self.stats.uncoalesced_half_warps += 1;
                        }
                        self.stats.global_st_transactions += acc.transactions as u64;
                        bytes += acc.bytes;
                    }
                }
                self.stats.global_bytes += bytes;
                for lane in 0..32 {
                    if mask >> lane & 1 == 1 {
                        let a = warp
                            .operand(addr, lane, self.params)
                            .as_u32()
                            .wrapping_add(off as u32);
                        let v = warp.operand(src, lane, self.params);
                        self.mem.write(a, v);
                    }
                }
                let _ = self.memory_request(bytes); // bandwidth only
                cfg.issue_cycles
            }
            Space::Shared => {
                let (lo, hi) = half_warp_addrs(warp, addr, off, self.params);
                let degree = smem_conflict_degree(cfg, &lo).max(smem_conflict_degree(cfg, &hi));
                let extra = cfg.issue_cycles * (degree as u64 - 1);
                self.stats.smem_conflict_extra_cycles += extra;
                for lane in 0..32 {
                    if mask >> lane & 1 == 1 {
                        let warp = &block.warps[wi];
                        let a = warp
                            .operand(addr, lane, self.params)
                            .as_u32()
                            .wrapping_add(off as u32);
                        let v = warp.operand(src, lane, self.params);
                        let idx = (a / 4) as usize;
                        assert!(
                            idx < smem_len,
                            "kernel {}: shared store out of bounds ({} >= {})",
                            self.kernel.name,
                            idx,
                            smem_len
                        );
                        block.smem[idx] = v;
                    }
                }
                cfg.issue_cycles + extra
            }
            Space::Local => {
                let mut bytes = 0u64;
                for lane in 0..32 {
                    if mask >> lane & 1 == 1 {
                        let a = warp
                            .operand(addr, lane, self.params)
                            .as_u32()
                            .wrapping_add(off as u32);
                        let v = warp.operand(src, lane, self.params);
                        warp.local_write(lane, a, v);
                        bytes += cfg.uncoalesced_txn_bytes as u64;
                    }
                }
                self.stats.global_bytes += bytes;
                self.stats.global_st_transactions += mask.count_ones() as u64;
                let _ = self.memory_request(bytes);
                cfg.issue_cycles
            }
            Space::Const | Space::Tex => panic!("stores to read-only memory space"),
        }
    }
}
