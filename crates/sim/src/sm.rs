//! The streaming-multiprocessor timing engine.
//!
//! Each SM holds up to eight resident blocks (subject to the register /
//! shared-memory / thread limits), schedules their warps round-robin through
//! a single issue port (one warp instruction per 4 cycles, longer for SFU /
//! 32-bit multiply / conflicted shared accesses), and tracks data readiness
//! with a per-warp scoreboard. Global memory requests flow through a
//! bandwidth-limited channel (this SM's slice of the 86.4 GB/s) plus a fixed
//! DRAM round-trip latency.
//!
//! **Functional-at-issue, timed-completion**: instruction side effects are
//! applied the moment the instruction issues; the scoreboard only delays
//! *when* dependents may issue. Programs that follow the CUDA consistency
//! rules (barriers between shared-memory producers and consumers, no
//! inter-block races except commutative atomics) observe exactly the values
//! hardware would produce, while timing still exhibits latency, queueing,
//! coalescing, divergence and bank-conflict effects. The functional half is
//! stated once, for this engine and for [`crate::witness`] replay alike:
//! [`Warp::exec_reg_only`], [`LaneAddrs`], [`load_const`], the local-memory
//! moves and [`Resident`]; [`ExecCtx::execute`] adds the scoreboard write,
//! the issue occupancy, the memory pipeline and the counters.
//!
//! # The predecoded hot loop
//!
//! This engine consumes a [`DecodedKernel`] (see [`g80_isa::decode`]) and is
//! written to keep the scheduler's steady state allocation-free:
//!
//! * **readiness is a gate-list scan** — each micro-op carries its
//!   precomputed scoreboard gate set (source registers + WAW destination),
//!   so [`inst_ready`] indexes the scoreboard directly instead of walking
//!   instruction operands;
//! * **the warp schedule is incremental** — all resident blocks share one
//!   geometry, so refilling a retired block in place preserves the
//!   round-robin order; the schedule is rebuilt only when the grid tail
//!   shrinks the resident set, and the retire scan itself runs only after
//!   some warp actually retired;
//! * **coalescing scratch is pooled** — the texture-space `lines` working
//!   set lives in a per-SM [`Scratch`] reused across accesses (the
//!   constant-space distinct-address set is a fixed stack array);
//! * **register files and shared memory are recycled** — a retired block's
//!   [`Resident`] storage is reset in place for the next block instead of
//!   being reallocated (the degenerate form of a free pool when every block
//!   has the same shape).
//!
//! None of this may change simulated timing: [`crate::reference`] keeps the
//! original engine as an executable spec, and the `golden_stats` test
//! asserts bit-identical [`crate::KernelStats`] between the two.

use crate::config::GpuConfig;
use crate::counters::{MemoCounters, RowCounters, SmStats, StallReason};
use crate::memory::{
    coalesce_affine_warp, coalesce_half_warp_noalloc, const_out_of_bounds,
    smem_conflict_degree_noalloc, smem_degree_affine_warp, DeviceMemory, HalfWarpAccess, TagCache,
};
use crate::warp::{RegSource, Warp};
use crate::witness::{
    const_sig, global_sig, local_bytes, replay_block, Ev, ReplayScratch, WitnessRecorder, WriteBuf,
};
use g80_isa::decode::{DecodedKernel, IssueClass, MicroOp};
use g80_isa::exec;
use g80_isa::inst::{Inst, InstClass, Operand, Space};
use g80_isa::row::{for_each_affine_lane, AffineTerms};
use g80_isa::{Kernel, LaneRow, Value};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Grid/block geometry of a launch.
#[derive(Copy, Clone, Debug)]
pub struct LaunchDims {
    pub grid: (u32, u32),
    pub block: (u32, u32, u32),
}

impl LaunchDims {
    pub fn threads_per_block(&self) -> u32 {
        self.block.0 * self.block.1 * self.block.2
    }
    pub fn total_blocks(&self) -> u64 {
        self.grid.0 as u64 * self.grid.1 as u64
    }
}

/// Registers per thread the register *file* holds. It must cover every
/// register the code names even when the reported count was forced lower for
/// an occupancy ablation (`Kernel::with_forced_regs`): the report drives
/// scheduling, the code drives storage.
pub(crate) fn file_regs(kernel: &Kernel) -> u32 {
    kernel
        .regs_per_thread
        .max(g80_isa::liveness::num_regs(&kernel.code) as u32)
}

/// One block's storage — its warps and its shared memory — as the timed
/// engine's resident slots and witness replay's scratch both hold it.
pub(crate) struct Resident {
    pub(crate) warps: Vec<Warp>,
    pub(crate) smem: Vec<Value>,
}

impl Resident {
    pub(crate) fn new(kernel: &Kernel, dims: &LaunchDims, ctaid: (u32, u32)) -> Self {
        let warps_per_block = dims.threads_per_block().div_ceil(32);
        let nregs = file_regs(kernel);
        let warps = (0..warps_per_block)
            .map(|w| Warp::new(w, nregs, dims.block, ctaid, dims.grid))
            .collect();
        Resident {
            warps,
            smem: vec![Value::ZERO; (kernel.smem_bytes as usize).div_ceil(4)],
        }
    }

    /// Recycles this slot's register files and shared memory for a new block
    /// of the same launch: equivalent to `Resident::new` with the same
    /// geometry, but without reallocating.
    pub(crate) fn reset(&mut self, ctaid: (u32, u32)) {
        for w in &mut self.warps {
            w.reset(ctaid);
        }
        self.smem.fill(Value::ZERO);
    }

    pub(crate) fn all_done(&self) -> bool {
        self.warps.iter().all(|w| w.done)
    }

    /// Barrier release: if every live warp of the block is parked, frees
    /// them all to issue again from `resume_at` and says so. Must be checked
    /// both when a warp parks AND when a warp exits — an exiting warp can be
    /// the last one its parked siblings were waiting for.
    pub(crate) fn release_barrier(&mut self, resume_at: u64) -> bool {
        let release = self.warps.iter().any(|w| w.at_barrier)
            && self.warps.iter().all(|w| w.done || w.at_barrier);
        if release {
            for w in self.warps.iter_mut() {
                w.at_barrier = false;
                w.resume_at = resume_at;
            }
        }
        release
    }
}

/// One schedule entry: a resident warp plus its cached stall verdict.
#[derive(Copy, Clone)]
struct Slot {
    bi: usize,
    wi: usize,
    /// `(ready_at, reason)` from the last scan that found the warp stalled;
    /// exact until the warp issues, its block releases a barrier, or the
    /// slot is refilled.
    cached: Option<(u64, StallReason)>,
}

/// Reusable per-SM working buffers for the memory path.
#[derive(Default)]
struct Scratch {
    /// Distinct texture lines of one warp access.
    lines: Vec<u32>,
}

/// One observed block-refill boundary of the dedup period detector: the
/// absolute progress at the instant the scheduler state had a given
/// (relative) snapshot. A later recurrence of the snapshot yields the
/// per-period deltas by subtraction.
struct Boundary {
    cycle: u64,
    stats: SmStats,
    class_counts: [u64; InstClass::COUNT],
    stall_counts: [u64; StallReason::ALL.len()],
    consumed: usize,
}

/// Element-wise `now - base` of a dense tally.
fn tally_delta<const N: usize>(now: &[u64; N], base: &[u64; N]) -> [u64; N] {
    std::array::from_fn(|i| now[i] - base[i])
}

/// Distinct boundary states tracked before giving up on period detection
/// (a transient longer than this means the launch is not steady-state).
const DEDUP_MAX_BOUNDARIES: usize = 64;

/// What one [`run_sm`] adds to its context's tallies (row shapes and the
/// dedup fields of [`MemoCounters`]); the caller flushes it once per run.
#[derive(Default)]
pub struct SmTally {
    pub rows: RowCounters,
    pub memo: MemoCounters,
}

/// Simulates one SM over its assigned blocks. Deterministic; aborts with a
/// [`crate::fault::WatchdogAbort`] past `watchdog` simulated cycles. With
/// `dedup` set (only for witness-eligible kernels, see [`crate::memo::KernelInfo`]),
/// steady-state periods of the block stream are fast-forwarded: timing by
/// recurrence of the scheduler-state snapshot, functional effects by
/// witness-verified replay. Aggregate stats are bit-identical either way.
///
/// When `witness_out` is provided (with `dedup` set, the SM then records
/// even if its whole queue is resident at once) and *every* block this SM
/// executed was verified class-identical to the representative, the
/// representative streams are moved into it. The SM's timing is a deterministic function of
/// its inputs, and every timing-relevant quantity the scheduler consumes is
/// captured by the event streams — so another SM whose equally-long block
/// queue replays clean against the same streams would evolve identically,
/// and may adopt this SM's stats outright (donor-SM reuse in
/// [`crate::launch`]).
#[allow(clippy::too_many_arguments)]
pub fn run_sm(
    cfg: &GpuConfig,
    kernel: &Kernel,
    decoded: &DecodedKernel,
    dims: &LaunchDims,
    params: &[Value],
    mem: &DeviceMemory,
    my_blocks: &[(u32, u32)],
    blocks_per_sm: u32,
    dedup: bool,
    shared_uniform: bool,
    watchdog: u64,
    tally: &mut SmTally,
    witness_out: Option<&mut Option<Vec<Vec<Ev>>>>,
) -> SmStats {
    let mut stats = SmStats::default();
    let mut next_block: usize = 0;
    let mut resident: Vec<Resident> = Vec::new();
    for _ in 0..blocks_per_sm {
        if next_block < my_blocks.len() {
            let ctaid = my_blocks[next_block];
            next_block += 1;
            resident.push(Resident::new(kernel, dims, ctaid));
        }
    }
    let wpb = dims.threads_per_block().div_ceil(32) as usize;
    // Record while a refill can recur (a steady state for the period
    // detector to fast-forward) or while other SMs will replay this one's
    // streams: a fully resident cohort still builds, freezes and verifies
    // the representative, and donor reuse needs nothing more.
    let mut recorder = if dedup && (my_blocks.len() > resident.len() || witness_out.is_some()) {
        Some(WitnessRecorder::new(resident.len(), wpb))
    } else {
        None
    };
    let mut boundaries: HashMap<Vec<u64>, Boundary> = HashMap::new();
    let mut fast_blocks: u64 = 0;
    // Replay-executor state for the fast-forward path, allocated on the
    // first period hit and recycled for every replayed block after it.
    let mut replay_scratch: Option<ReplayScratch> = None;

    let mut cycle: u64 = 0;
    let mut chan_free: u64 = 0;
    let mut const_cache = TagCache::new(cfg.const_cache_bytes, 64);
    let mut tex_cache = TagCache::new(cfg.tex_cache_bytes, cfg.tex_line_bytes);
    let mut scratch = Scratch::default();
    // Dense per-class instruction and per-reason stall counters, folded into
    // the by_class and stall_cycles maps once at the end (a HashMap update
    // per instruction or per event skip is hot-loop cost).
    let mut class_counts = [0u64; InstClass::COUNT];
    let mut stall_counts = [0u64; StallReason::ALL.len()];
    let mut rr: usize = 0;

    // The flattened warp schedule, maintained incrementally: every block of
    // a launch has the same warp count, so an in-place refill leaves the
    // schedule unchanged; only removing a slot (grid tail) invalidates it.
    //
    // Each slot also caches the warp's last computed stall verdict. A
    // stalled warp's (ready_at, reason) depends only on its own state
    // (frames, scoreboard, resume_at), which changes exactly when the warp
    // issues, its block releases a barrier, or the slot is refilled with a
    // new block — the three places that clear the cache below. Between
    // those events the scan skips the settle + gate-list recomputation.
    let mut order: Vec<Slot> = Vec::new();
    let mut order_stale = true;
    // A block's all_done() can only flip after some warp retires; gate the
    // retire/refill scan on that event instead of re-checking every
    // scheduler iteration.
    let mut check_retire = true;

    loop {
        if cycle >= watchdog {
            stats.cycles = cycle;
            crate::fault::watchdog_abort(&kernel.name, watchdog, cycle, stats.warp_instructions);
        }
        if check_retire {
            check_retire = false;
            // Retire completed blocks, refill from the queue.
            let mut refilled = false;
            let mut i = 0;
            while i < resident.len() {
                if resident[i].all_done() {
                    stats.blocks_executed += 1;
                    if let Some(rec) = recorder.as_mut() {
                        rec.on_retire(i);
                    }
                    if next_block < my_blocks.len() {
                        let ctaid = my_blocks[next_block];
                        next_block += 1;
                        resident[i].reset(ctaid);
                        for s in order.iter_mut() {
                            if s.bi == i {
                                s.cached = None;
                            }
                        }
                        refilled = true;
                        i += 1;
                    } else {
                        // Grid tail: drop the slot's witness state so the
                        // remaining slot indices realign (no fast-forward is
                        // possible with an empty queue, but the per-block
                        // verification must survive for donor-SM reuse).
                        if let Some(rec) = recorder.as_mut() {
                            rec.on_remove(i);
                        }
                        resident.remove(i);
                        order_stale = true;
                    }
                } else {
                    i += 1;
                }
            }

            // Period detection + fast-forward, at block-refill boundaries.
            if refilled && !order_stale {
                if let Some(rec) = recorder.as_mut() {
                    if rec.valid && rec.rep_done() && next_block < my_blocks.len() {
                        debug_assert_eq!(order.len(), resident.len() * wpb);
                        let snap = dedup_snapshot(
                            &resident,
                            &order,
                            wpb,
                            rr,
                            cycle,
                            chan_free,
                            rec,
                            &const_cache,
                        );
                        let n_boundaries = boundaries.len();
                        match boundaries.entry(snap) {
                            Entry::Occupied(occ) => {
                                let b = occ.get();
                                let d_cycle = cycle - b.cycle;
                                let d_consumed = next_block - b.consumed;
                                if d_consumed > 0
                                    && d_cycle > 0
                                    && my_blocks.len() - next_block >= 2 * d_consumed
                                {
                                    // The skipped windows also involve the
                                    // currently resident blocks: their full
                                    // event streams must match the
                                    // representative for the measured deltas
                                    // to transfer to them.
                                    let scratch = replay_scratch
                                        .get_or_insert_with(|| ReplayScratch::new(kernel, dims));
                                    let residents_ok = resident.iter().all(|r| {
                                        let mut dry = WriteBuf::default();
                                        replay_block(
                                            cfg,
                                            decoded,
                                            params,
                                            mem,
                                            r.warps[0].ctaid,
                                            rec.rep(),
                                            &mut dry,
                                            shared_uniform,
                                            scratch,
                                        )
                                    });
                                    if !residents_ok {
                                        tally.memo.dedup_fallbacks += 1;
                                        rec.valid = false;
                                    } else {
                                        let d_stats = stats.delta_since(&b.stats);
                                        let d_class = tally_delta(&class_counts, &b.class_counts);
                                        let d_stall = tally_delta(&stall_counts, &b.stall_counts);
                                        while my_blocks.len() - next_block >= 2 * d_consumed {
                                            let mut buf = WriteBuf::default();
                                            let ok = (0..d_consumed).all(|j| {
                                                replay_block(
                                                    cfg,
                                                    decoded,
                                                    params,
                                                    mem,
                                                    my_blocks[next_block + j],
                                                    rec.rep(),
                                                    &mut buf,
                                                    shared_uniform,
                                                    scratch,
                                                )
                                            });
                                            if !ok {
                                                // Nothing committed: fall back
                                                // to full simulation from this
                                                // exact state.
                                                tally.memo.dedup_fallbacks += 1;
                                                rec.valid = false;
                                                break;
                                            }
                                            buf.commit(mem);
                                            next_block += d_consumed;
                                            fast_blocks += d_consumed as u64;
                                            stats.add_delta(&d_stats);
                                            for (cc, dc) in class_counts.iter_mut().zip(d_class) {
                                                *cc += dc;
                                            }
                                            for (sc, ds) in stall_counts.iter_mut().zip(d_stall) {
                                                *sc += ds;
                                            }
                                            // Shift every absolute-cycle value
                                            // uniformly; all scheduler
                                            // comparisons are invariant under
                                            // this.
                                            cycle += d_cycle;
                                            chan_free += d_cycle;
                                            for r in resident.iter_mut() {
                                                for w in r.warps.iter_mut() {
                                                    for t in w.reg_ready.iter_mut() {
                                                        *t += d_cycle;
                                                    }
                                                    w.resume_at += d_cycle;
                                                }
                                            }
                                            for s in order.iter_mut() {
                                                if let Some((t, _)) = s.cached.as_mut() {
                                                    *t += d_cycle;
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                            Entry::Vacant(v) => {
                                if n_boundaries < DEDUP_MAX_BOUNDARIES {
                                    v.insert(Boundary {
                                        cycle,
                                        stats: stats.clone(),
                                        class_counts,
                                        stall_counts,
                                        consumed: next_block,
                                    });
                                } else {
                                    // Transient too long: stop paying the
                                    // recording overhead.
                                    rec.valid = false;
                                }
                            }
                        }
                    }
                }
            }
        }
        if resident.is_empty() {
            break;
        }

        if order_stale {
            order_stale = false;
            order.clear();
            for (bi, r) in resident.iter().enumerate() {
                for wi in 0..r.warps.len() {
                    order.push(Slot {
                        bi,
                        wi,
                        cached: None,
                    });
                }
            }
        }
        let n = order.len();

        // Scan for a ready warp, remembering the earliest future candidate.
        let mut issued = false;
        let mut best_next: u64 = u64::MAX;
        let mut best_reason = StallReason::Drain;
        for k in 0..n {
            let idx = (rr + k) % n;
            let Slot { bi, wi, cached } = order[idx];
            let block = &mut resident[bi];
            let warp = &mut block.warps[wi];
            if warp.done || warp.at_barrier {
                continue;
            }
            let (ready_at, reason) = match cached {
                Some(c) => c,
                None => {
                    if !warp.settle() {
                        check_retire = true;
                        continue; // retired just now
                    }
                    let pc = warp.pc() as usize;
                    let mop = &decoded.ops[pc];
                    let (reg_ready, gate) = inst_ready(warp, mop);
                    // A post-barrier pipeline drain dominates register
                    // readiness: attribute that wait to the barrier, not
                    // the ALU/memory.
                    let reason = if warp.resume_at > reg_ready {
                        StallReason::Barrier
                    } else {
                        match gate {
                            Some(RegSource::Memory) => StallReason::Memory,
                            Some(RegSource::Alu) => StallReason::AluDependency,
                            // Defensive: gate is None only when no register
                            // is pending, and then the wait is a barrier
                            // drain (handled above) — unreachable today.
                            None => StallReason::IssueBusy,
                        }
                    };
                    (reg_ready.max(warp.resume_at), reason)
                }
            };
            if ready_at <= cycle {
                let pc = warp.pc() as usize;
                let mop = &decoded.ops[pc];
                let pre_mask = warp.active_mask();
                let record = recorder.as_ref().is_some_and(|r| r.valid);
                let mut ctx = ExecCtx {
                    cfg,
                    kernel,
                    params,
                    mem,
                    stats: &mut stats,
                    chan_free: &mut chan_free,
                    const_cache: &mut const_cache,
                    tex_cache: &mut tex_cache,
                    scratch: &mut scratch,
                    class_counts: &mut class_counts,
                    cycle,
                    record,
                    ev_aux: 0,
                    ev_bytes: 0,
                    rows: &mut tally.rows,
                };
                let dur = ctx.execute(block, wi, mop);
                let (ev_aux, ev_bytes) = (ctx.ev_aux, ctx.ev_bytes);
                cycle += dur;
                rr = (rr + k + 1) % n;
                issued = true;
                order[idx].cached = None; // the warp advanced
                if record {
                    if let Some(rec) = recorder.as_mut() {
                        rec.record(bi, wi, Ev::new(pc as u32, pre_mask, ev_aux, ev_bytes));
                    }
                }

                let block = &mut resident[bi];
                if block.warps[wi].done {
                    check_retire = true;
                }
                if (block.warps[wi].at_barrier || block.warps[wi].done)
                    && block.release_barrier(cycle + cfg.barrier_latency)
                {
                    // resume_at moved for the whole block.
                    for s in order.iter_mut() {
                        if s.bi == bi {
                            s.cached = None;
                        }
                    }
                }
                break;
            } else {
                order[idx].cached = Some((ready_at, reason));
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
            // filled — or warps retired during the scan (check_retire is
            // set, so the retire loop runs next). A genuine deadlock
            // (divergent barrier) is a kernel bug.
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
        stall_counts[best_reason.index()] += skip;
        cycle += skip;
    }

    for c in InstClass::ALL {
        let n = class_counts[c.index()];
        if n > 0 {
            *stats.by_class.entry(c).or_insert(0) += n;
        }
    }
    for r in StallReason::ALL {
        let n = stall_counts[r.index()];
        if n > 0 {
            *stats.stall_cycles.entry(r).or_insert(0) += n;
        }
    }
    stats.cycles = cycle;
    if dedup {
        tally.memo.dedup_fast_blocks += fast_blocks;
        tally.memo.dedup_sim_blocks += my_blocks.len() as u64 - fast_blocks;
    }
    if let (Some(out), Some(rec)) = (witness_out, recorder.as_mut()) {
        *out = rec.take_verified();
    }
    stats
}

/// Serializes the SM's timing-relevant state — scheduler, scoreboards and
/// constant-cache tags — *relative to the current cycle* at a block-refill
/// boundary. Two boundaries with equal snapshots (plus witness-verified
/// block streams) evolve identically, so the machine is periodic between
/// them.
///
/// Values already in the past are canonicalized to 0 — the scheduler only
/// ever compares them against `cycle`, never against each other on a path
/// that matters: a warp whose `ready_at` is past issues regardless of the
/// gate attribution, so the attribution is dropped for rel 0 entries.
#[allow(clippy::too_many_arguments)]
fn dedup_snapshot(
    resident: &[Resident],
    order: &[Slot],
    wpb: usize,
    rr: usize,
    cycle: u64,
    chan_free: u64,
    rec: &WitnessRecorder,
    const_cache: &TagCache,
) -> Vec<u64> {
    let mut s = Vec::with_capacity(4 + resident.len() * wpb * 8);
    s.push(resident.len() as u64);
    s.push(rr as u64);
    s.push(chan_free.saturating_sub(cycle));
    for (bi, r) in resident.iter().enumerate() {
        for (wi, w) in r.warps.iter().enumerate() {
            s.push(((w.done as u64) << 1) | w.at_barrier as u64);
            s.push(w.resume_at.saturating_sub(cycle));
            s.push(w.frames.len() as u64);
            for f in &w.frames {
                s.push(((f.pc as u64) << 32) | f.rpc as u64);
                s.push(f.mask as u64);
            }
            for (ri, &t) in w.reg_ready.iter().enumerate() {
                let rel = t.saturating_sub(cycle);
                let src = if rel > 0 {
                    matches!(w.reg_source[ri], RegSource::Memory) as u64
                } else {
                    0
                };
                s.push((rel << 1) | src);
            }
            // Witness cursor: the same pc at different loop iterations of
            // the block must not alias.
            s.push(rec.cursor(bi, wi) as u64);
            s.push(match order[bi * wpb + wi].cached {
                None => u64::MAX,
                Some((t, reason)) => {
                    let rel = t.saturating_sub(cycle);
                    if rel == 0 {
                        0
                    } else {
                        (rel << 3) | (reason.index() as u64 + 1)
                    }
                }
            });
        }
    }
    // The constant cache couples the blocks of an SM: which of a block's
    // loads miss depends on what its predecessors left resident, so the tags
    // are recurring state like the scoreboard. Everything above is
    // self-delimiting, so the optional tail cannot alias it; a cache that
    // was never filled (every kernel without constant loads) adds nothing.
    let tags = const_cache.tags();
    if tags.iter().any(|&t| t != u64::MAX) {
        s.extend_from_slice(tags);
    }
    s
}

/// (earliest cycle at which the instruction's registers are ready, the
/// source kind of the gating register).
///
/// The micro-op's precomputed gate set lists exactly the registers the
/// reference engine's operand walk would consider, in the same order, so
/// the strict-`>` max keeps the same gate attribution.
#[inline]
fn inst_ready(warp: &Warp, mop: &MicroOp) -> (u64, Option<RegSource>) {
    let mut t = 0u64;
    let mut gate = None;
    for &r in mop.gate_regs() {
        let ready = warp.reg_ready[r as usize];
        if ready > t {
            t = ready;
            gate = Some(warp.reg_source[r as usize]);
        }
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
    scratch: &'a mut Scratch,
    class_counts: &'a mut [u64; InstClass::COUNT],
    cycle: u64,
    /// Dedup witness recording active: the memory/branch paths below fill
    /// `ev_aux`/`ev_bytes` with the instruction's timing signature — the
    /// value [`crate::witness`]'s replay executor derives from the same
    /// [`LaneAddrs`] / [`load_const`] result and compares.
    record: bool,
    ev_aux: u32,
    ev_bytes: u32,
    /// Per-SM row-shape tally (flushed to the launching context's counters
    /// once per `run_sm`).
    rows: &'a mut RowCounters,
}

/// Per-lane effective addresses of a memory instruction (the address
/// operand is resolved once for the whole warp).
#[inline]
pub(crate) fn addr_row(warp: &Warp, addr_op: Operand, off: i32, params: &[Value]) -> [u32; 32] {
    let row = warp.operand_row(addr_op, params);
    std::array::from_fn(|l| row[l].as_u32().wrapping_add(off as u32))
}

/// The terms of a memory instruction's per-lane effective-address row
/// (`operand + off`) when that row is shaped: the offset shifts the base and
/// preserves stride, step and period (so the row stays canonical). `None`
/// means no closed form — fall back to [`addr_row`].
#[inline]
fn addr_terms(warp: &Warp, addr_op: Operand, off: i32, params: &[Value]) -> Option<AffineTerms> {
    let t = warp.operand_shape(addr_op, params).terms()?;
    Some(AffineTerms {
        base: t.base.wrapping_add(off as u32),
        ..t
    })
}

/// The per-lane addresses of one warp memory access, in the form both
/// executors (the timed engine here, witness replay in [`crate::witness`])
/// derive every functional effect and every timing signature from — so the
/// two cannot disagree on which path an access takes.
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
    ) -> LaneAddrs {
        if mask == warp.init_mask {
            if let Some(t) = addr_terms(warp, addr_op, off, params) {
                // `init_mask` is a lane prefix: its ones are its trailing ones.
                return LaneAddrs::Shaped(t, mask.trailing_ones());
            }
        }
        LaneAddrs::Lanes(addr_row(warp, addr_op, off, params), mask)
    }

    /// Calls `f(lane, addr)` for every active lane, in lane order.
    #[inline(always)]
    pub(crate) fn for_each(&self, mut f: impl FnMut(usize, u32)) {
        match *self {
            LaneAddrs::Shaped(t, live) => for_each_affine_lane(t, live as usize, f),
            LaneAddrs::Lanes(ref addrs, mask) => {
                for (lane, &a) in addrs.iter().enumerate() {
                    if mask >> lane & 1 == 1 {
                        f(lane, a);
                    }
                }
            }
        }
    }

    /// CC 1.0 coalescing of the access's two half-warps: closed form for a
    /// shaped row, per-lane scan otherwise — equal on every input
    /// (`memory::tests::affine_closed_forms_match_scans`). A half with no
    /// active lane reports zero transactions.
    #[inline]
    pub(crate) fn coalesce(&self, cfg: &GpuConfig) -> [HalfWarpAccess; 2] {
        match *self {
            LaneAddrs::Shaped(ref t, live) => coalesce_affine_warp(cfg, t, live),
            LaneAddrs::Lanes(ref addrs, mask) => {
                let (lo, hi) = split_half_warps(addrs, mask);
                [lo, hi].map(|half| coalesce_half_warp_noalloc(cfg, &half))
            }
        }
    }

    /// Shared-memory bank-conflict degree of the access: the worse of its
    /// two half-warps, by closed form or scan as for [`Self::coalesce`].
    #[inline]
    pub(crate) fn smem_degree(&self, cfg: &GpuConfig) -> u32 {
        match *self {
            LaneAddrs::Shaped(ref t, live) => smem_degree_affine_warp(cfg, t, live),
            LaneAddrs::Lanes(ref addrs, mask) => {
                let (lo, hi) = split_half_warps(addrs, mask);
                smem_conflict_degree_noalloc(cfg, &lo).max(smem_conflict_degree_noalloc(cfg, &hi))
            }
        }
    }
}

/// Splits an address row into the two half-warp arrays the coalescing and
/// bank-conflict models consume (active lanes only).
#[inline]
fn split_half_warps(addrs: &[u32; 32], mask: u32) -> ([Option<u32>; 16], [Option<u32>; 16]) {
    let mut lo = [None; 16];
    let mut hi = [None; 16];
    for lane in 0..32 {
        if mask >> lane & 1 == 1 {
            if lane < 16 {
                lo[lane] = Some(addrs[lane]);
            } else {
                hi[lane - 16] = Some(addrs[lane]);
            }
        }
    }
    (lo, hi)
}

/// The functional half of one warp constant load, for both executors: every
/// active lane reads its word into `dst`, and `distinct[..n]` receives the
/// distinct addresses in first-lane order — what the load serializes over
/// and what [`const_sig`] fingerprints (an out-parameter: returning the
/// 128-byte list by value cost MRI-Q replay ≈ 15 %). An undiverged warp
/// reading the one address of a `Uniform` row is the broadcast closed form:
/// one constant-bank read and a `Uniform` result, as fast as a register read
/// on the hardware. `Err` is the first address outside the constant bank,
/// with nothing written: the timed engine panics on it, replay fails.
pub(crate) fn load_const(
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
    let addrs = addr_row(warp, addr, off, params);
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
    let dst_row = warp.reg_row_mut(dst);
    for lane in 0..32 {
        if mask >> lane & 1 == 1 {
            dst_row[lane] = words[lane];
        }
    }
    Ok(n)
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

    /// Probes the per-SM constant cache with one warp load's distinct
    /// addresses (misses fill from DRAM through this SM's channel); returns
    /// when the data is ready and which unit delivers it. The witness event
    /// carries the address signature only: hit or miss is the cache's state,
    /// which the period detector snapshots, not a property of the block.
    fn const_access(&mut self, distinct: &[u32]) -> (u64, RegSource) {
        if self.record {
            self.ev_aux = const_sig(distinct);
        }
        let mut miss_bytes = 0u64;
        for &a in distinct {
            if self.const_cache.access(a) {
                self.stats.const_hits += 1;
            } else {
                self.stats.const_misses += 1;
                miss_bytes += 64;
            }
        }
        if miss_bytes > 0 {
            self.stats.global_bytes += miss_bytes;
            (self.memory_request(miss_bytes), RegSource::Memory)
        } else {
            (self.cycle + self.cfg.const_hit_latency, RegSource::Alu)
        }
    }

    /// Counts which kind of row resolved a memory access's addresses.
    fn tally_addrs(&mut self, addrs: &LaneAddrs) {
        match addrs {
            LaneAddrs::Shaped(t, _) if t.is_uniform() => self.rows.uniform += 1,
            LaneAddrs::Shaped(..) => self.rows.affine += 1,
            LaneAddrs::Lanes(..) => self.rows.full += 1,
        }
    }

    /// Accounts one warp global load or store — half-warp verdicts,
    /// transactions, bytes, the witness signature — and returns the bytes it
    /// moves. A half-warp with no active lane issues and counts nothing.
    fn global_access(&mut self, addrs: &LaneAddrs, store: bool) -> u64 {
        self.tally_addrs(addrs);
        let halves = addrs.coalesce(self.cfg);
        let mut transactions = 0u64;
        let mut bytes = 0u64;
        for acc in halves.iter().filter(|acc| acc.transactions > 0) {
            if acc.coalesced {
                self.stats.coalesced_half_warps += 1;
            } else {
                self.stats.uncoalesced_half_warps += 1;
            }
            transactions += acc.transactions as u64;
            bytes += acc.bytes;
        }
        if store {
            self.stats.global_st_transactions += transactions;
        } else {
            self.stats.global_ld_transactions += transactions;
        }
        self.stats.global_bytes += bytes;
        if self.record {
            (self.ev_aux, self.ev_bytes) = global_sig(&halves);
        }
        bytes
    }

    /// Accounts one warp local (spill) load or store — one uncoalesced
    /// transaction per active lane through this SM's channel — and returns
    /// the completion cycle.
    fn local_access(&mut self, mask: u32, store: bool) -> u64 {
        if store {
            self.stats.global_st_transactions += mask.count_ones() as u64;
        } else {
            self.stats.global_ld_transactions += mask.count_ones() as u64;
        }
        let bytes = local_bytes(self.cfg, mask) as u64;
        self.stats.global_bytes += bytes;
        if self.record {
            self.ev_bytes = bytes as u32;
        }
        self.memory_request(bytes)
    }

    /// Accounts one warp shared load or store; returns the extra issue
    /// cycles its bank conflicts serialize over.
    fn shared_access(&mut self, addrs: &LaneAddrs) -> u64 {
        self.tally_addrs(addrs);
        let degree = addrs.smem_degree(self.cfg);
        let extra = self.cfg.issue_cycles * (degree as u64 - 1);
        self.stats.smem_conflict_extra_cycles += extra;
        if self.record {
            self.ev_aux = degree;
        }
        extra
    }

    /// Executes the next instruction of warp `wi` in `block`. Returns the
    /// issue-port occupancy in cycles.
    fn execute(&mut self, block: &mut Resident, wi: usize, mop: &MicroOp) -> u64 {
        let cfg = self.cfg;
        let warp = &mut block.warps[wi];
        let pc = warp.pc() as usize;
        let inst = mop.inst;
        let mask = warp.active_mask();
        let lanes = mask.count_ones();
        self.stats.warp_instructions += 1;
        self.stats.thread_instructions += lanes as u64;
        self.stats.flops += mop.flops as u64 * lanes as u64;
        self.class_counts[mop.class.index()] += 1;

        // Register-only instructions: what they do is `Warp::exec_reg_only`;
        // when the result lands and how long the issue port is held is a
        // function of the predecoded issue class alone.
        if warp.exec_reg_only(&inst, mask, self.params) {
            let dst = mop.dst as usize;
            self.rows.tally(&warp.shapes[dst]);
            let (latency, issue) = match mop.issue {
                IssueClass::Normal => (cfg.alu_latency, cfg.issue_cycles),
                IssueClass::Imul => (cfg.alu_latency, cfg.imul_issue_cycles),
                IssueClass::Sfu => (cfg.sfu_latency, cfg.sfu_issue_cycles),
            };
            warp.reg_ready[dst] = self.cycle + latency;
            warp.reg_source[dst] = RegSource::Alu;
            return issue;
        }
        match inst {
            Inst::Ld {
                space,
                dst,
                addr,
                off,
            } => {
                let dur = self.do_load(block, wi, space, dst.0, addr, off);
                block.warps[wi].advance();
                dur
            }
            Inst::St {
                space,
                addr,
                off,
                src,
            } => {
                let dur = self.do_store(block, wi, space, addr, off, src);
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
                debug_assert!(!self.record, "dedup witness on atomic");
                let (warps, smem) = (&mut block.warps, &mut block.smem);
                let warp = &mut warps[wi];
                let addrs = addr_row(warp, addr, off, self.params);
                let srcs = warp.operand_row(src, self.params);
                let completion;
                match space {
                    Space::Global => {
                        let mut bytes = 0u64;
                        for lane in 0..32 {
                            if mask >> lane & 1 == 1 {
                                let old = self.mem.atomic(op, addrs[lane], srcs[lane]);
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
                                let idx = (addrs[lane] / 4) as usize;
                                assert!(idx < smem.len(), "shared atomic out of bounds");
                                let (new, old) = exec::eval_atom(op, smem[idx], srcs[lane]);
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
                        if self.record {
                            self.ev_aux = m;
                        }
                        warp.take_branch(m, target.0, reconv.0, next_pc);
                    }
                    Some(p) => {
                        let taken = warp.taken_mask(p.reg.0, p.negate, mask);
                        if self.record {
                            self.ev_aux = taken;
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
            _ => unreachable!("register-only instructions issued above"),
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
    ) -> u64 {
        let cfg = self.cfg;
        let (warps, smem) = (&mut block.warps, &block.smem);
        let warp = &mut warps[wi];
        let mask = warp.active_mask();
        match space {
            Space::Global => {
                // A shaped address row gets the coalescing verdict of both
                // halves in closed form; the per-lane work shrinks to the
                // functional reads.
                let addrs = LaneAddrs::of(warp, mask, addr, off, self.params);
                let bytes = self.global_access(&addrs, false);
                let dst_row = warp.reg_row_mut(dst);
                addrs.for_each(|l, a| dst_row[l] = self.mem.read(a));
                let done = self.memory_request(bytes);
                warp.reg_ready[dst as usize] = done;
                warp.reg_source[dst as usize] = RegSource::Memory;
                cfg.issue_cycles
            }
            Space::Shared => {
                let addrs = LaneAddrs::of(warp, mask, addr, off, self.params);
                let extra = self.shared_access(&addrs);
                let dst_row = warp.reg_row_mut(dst);
                addrs.for_each(|l, a| {
                    let idx = (a / 4) as usize;
                    assert!(
                        idx < smem.len(),
                        "kernel {}: shared load out of bounds ({} >= {})",
                        self.kernel.name,
                        idx,
                        smem.len()
                    );
                    dst_row[l] = smem[idx];
                });
                warp.reg_ready[dst as usize] = self.cycle + cfg.smem_latency + extra;
                warp.reg_source[dst as usize] = RegSource::Alu;
                cfg.issue_cycles + extra
            }
            Space::Const => {
                let mut distinct = [0u32; 32];
                let n = load_const(warp, dst, addr, off, self.params, self.mem, &mut distinct)
                    .unwrap_or_else(|a| const_out_of_bounds(a));
                self.rows.tally(&warp.shapes[dst as usize]);
                // Each distinct line goes through the per-SM constant cache.
                let (ready, source) = self.const_access(&distinct[..n]);
                warp.reg_ready[dst as usize] = ready;
                warp.reg_source[dst as usize] = source;
                // Distinct addresses within the warp serialize beyond the
                // broadcast case.
                cfg.issue_cycles + (n.max(1) as u64 - 1) * 2
            }
            Space::Tex => {
                debug_assert!(!self.record, "dedup witness on texture-cache load");
                let addrs = addr_row(warp, addr, off, self.params);
                let lines = &mut self.scratch.lines;
                lines.clear();
                let dst_row = warp.reg_row_mut(dst);
                for (lane, &a) in addrs.iter().enumerate() {
                    if mask >> lane & 1 == 1 {
                        let g = self.mem.tex_to_global(a);
                        let line = g / cfg.tex_line_bytes;
                        if !lines.contains(&line) {
                            lines.push(line);
                        }
                        dst_row[lane] = self.mem.read(g);
                    }
                }
                let mut miss_bytes = 0u64;
                for i in 0..lines.len() {
                    let line = self.scratch.lines[i];
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
                let addrs = addr_row(warp, addr, off, self.params);
                warp.load_local(mask, dst, &addrs);
                let done = self.local_access(mask, false);
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
    ) -> u64 {
        let cfg = self.cfg;
        let warp = &mut block.warps[wi];
        let mask = warp.active_mask();
        match space {
            Space::Global => {
                let addrs = LaneAddrs::of(warp, mask, addr, off, self.params);
                let srcs = warp.operand_row(src, self.params);
                let bytes = self.global_access(&addrs, true);
                addrs.for_each(|l, a| self.mem.write(a, srcs[l]));
                let _ = self.memory_request(bytes); // bandwidth only
                cfg.issue_cycles
            }
            Space::Shared => {
                let addrs = LaneAddrs::of(warp, mask, addr, off, self.params);
                let srcs = warp.operand_row(src, self.params);
                let extra = self.shared_access(&addrs);
                addrs.for_each(|l, a| {
                    let idx = (a / 4) as usize;
                    assert!(
                        idx < block.smem.len(),
                        "kernel {}: shared store out of bounds ({} >= {})",
                        self.kernel.name,
                        idx,
                        block.smem.len()
                    );
                    block.smem[idx] = srcs[l];
                });
                cfg.issue_cycles + extra
            }
            Space::Local => {
                let addrs = addr_row(warp, addr, off, self.params);
                let srcs = warp.operand_row(src, self.params);
                warp.store_local(mask, &addrs, &srcs);
                let _ = self.local_access(mask, true); // bandwidth only
                cfg.issue_cycles
            }
            Space::Const | Space::Tex => panic!("stores to read-only memory space"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use g80_isa::inst::Reg;

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
