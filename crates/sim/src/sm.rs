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
//! # Three parts around one launch
//!
//! `run_sm` takes the launch as one value, `Prepared` (configuration,
//! spec, predecoded kernel, dedup verdict, watchdog budget), and drives
//! three kinds of state, each behind one type:
//!
//! * **the schedule** (`Schedule`) — resident blocks, the round-robin
//!   order over their warps with each stalled warp's cached verdict, the
//!   queue position. Readiness is a gate-list scan (`stall_verdict`
//!   indexes the scoreboard with each micro-op's precomputed gate set); the
//!   order is rebuilt only when the grid tail shrinks the resident set, the
//!   retire scan runs only after some warp retired, and a retired block's
//!   `Resident` storage is reset in place for the next block;
//! * **the pipeline** (`ExecCtx`) — clock, DRAM channel, constant and
//!   texture caches, counters and row tally, built once per SM run; each
//!   issue lends it one resident block (`ExecCtx::execute`). The texture
//!   line set is pooled, the constant distinct-address set a stack array;
//! * **the observer** (`Observe`), chosen once per run: the period detector
//!   (`PeriodDetector`: witness recorder, boundary states, replay scratch)
//!   on an SM that records, `()` otherwise. The schedule calls it at issue,
//!   retire, remove, refill and the end; the detector fast-forwards whole
//!   periods (`Schedule::shift` moves both other parts' clocks).
//!
//! None of this may change simulated timing: [`crate::reference`] keeps the
//! original engine as an executable spec, and the `golden_stats` test
//! asserts bit-identical [`crate::KernelStats`] between the two.

use crate::config::GpuConfig;
use crate::counters::{MemoCounters, RowCounters, SmStats, StallReason, TallyKey};
use crate::launch::Prepared;
use crate::memory::{
    coalesce_affine_warp, coalesce_half_warp_noalloc, const_out_of_bounds, global_out_of_bounds,
    smem_degree_affine_warp, smem_degree_lanes, DeviceMemory, HalfWarpAccess, TagCache, Words,
};
use crate::warp::{RegSource, Warp};
use crate::witness::{replay_block, Ev, ReplayScratch, Sig, Signature, WitnessRecorder, WriteBuf};
use g80_isa::decode::{DecodedKernel, IssueClass, MicroOp};
use g80_isa::exec::{self, Row};
use g80_isa::inst::{Inst, Operand, Space};
use g80_isa::row::AffineTerms;
use g80_isa::{Kernel, LaneRow, Value};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::ops::Range;

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

/// What one [`run_sm`] adds to its context's tallies (row shapes and the
/// dedup fields of [`MemoCounters`]); the caller flushes it once per run.
pub(crate) struct SmTally {
    pub rows: RowCounters,
    pub memo: MemoCounters,
}

/// Simulates one SM over its assigned blocks. Deterministic; aborts with a
/// [`crate::fault::WatchdogAbort`] past the launch's watchdog budget.
///
/// The run's [`Observe`] impl is chosen here, once. With [`Prepared::dedup`]
/// set (witness-eligible kernels, [`crate::memo::KernelInfo`]) and a refill
/// that can recur or a `witness_out` to fill, the SM records: its
/// [`PeriodDetector`] fast-forwards steady-state periods of the block stream
/// (timing by recurrence of the scheduler-state snapshot, functional effects
/// by witness-verified replay). Any other SM runs under `()`, with no
/// recorder and no signature work. Stats are bit-identical either way.
///
/// If *every* block this SM executed verified class-identical to the
/// representative, its streams move into `witness_out`: another SM whose
/// equally-long queue replays clean against them evolves identically and
/// may adopt this SM's stats outright (donor-SM reuse in [`crate::launch`]).
pub(crate) fn run_sm(
    p: &Prepared,
    queue: &[(u32, u32)],
    witness_out: Option<&mut Option<Vec<Vec<Ev>>>>,
) -> (SmStats, SmTally) {
    let sched = Schedule::new(p, queue);
    if p.dedup && (queue.len() > sched.resident.len() || witness_out.is_some()) {
        observed(p, PeriodDetector::new(&sched), sched, witness_out)
    } else {
        observed(p, (), sched, witness_out)
    }
}

/// [`run_sm`] under the observer `obs`.
fn observed<O: Observe>(
    p: &Prepared,
    mut obs: O,
    mut sched: Schedule,
    witness_out: Option<&mut Option<Vec<Vec<Ev>>>>,
) -> (SmStats, SmTally) {
    let decoded = p.decoded();
    let mut pipe = ExecCtx::new(p);
    loop {
        if pipe.cycle >= p.watchdog {
            let insts = pipe.stats.warp_instructions;
            crate::fault::watchdog_abort(&p.spec.kernel.name, p.watchdog, pipe.cycle, insts);
        }
        if sched.check_retire && sched.retire(&mut pipe.stats, &mut obs) {
            obs.at_refill(p, &mut sched, &mut pipe);
        }
        if sched.resident.is_empty() {
            break;
        }
        let Some((next, reason)) = sched.issue(decoded, &mut pipe, &mut obs) else {
            continue;
        };
        if next == u64::MAX {
            sched.check_deadlock(&p.spec.kernel.name);
            continue;
        }
        // Nothing ready: event-skip to the earliest candidate.
        let skip = next.saturating_sub(pipe.cycle).max(1);
        pipe.stats.stall(reason, skip);
        pipe.cycle += skip;
    }
    pipe.stats.cycles = pipe.cycle;
    let mut memo = obs.finish(witness_out);
    if p.dedup {
        memo.dedup_sim_blocks = sched.queue.len() as u64 - memo.dedup_fast_blocks;
    }
    let rows = pipe.rows;
    (pipe.stats, SmTally { rows, memo })
}

/// What watches an SM run at its schedule's events; a hook it does not
/// need stays a no-op. [`run_sm`] picks one per run, and each is
/// monomorphised, so `()` costs nothing.
trait Observe: Sized {
    /// The signature each issue builds for [`Observe::issued`].
    type Sig: Signature;
    /// Warp `wi` of slot `bi` issued the instruction at `pc` under `mask`.
    fn issued(&mut self, _bi: usize, _wi: usize, _pc: u32, _mask: u32, _sig: Self::Sig) {}
    /// The block in slot `bi` retired, before the slot refills.
    fn retired(&mut self, _bi: usize) {}
    /// The grid tail removed slot `bi`, after its [`Observe::retired`].
    fn removed(&mut self, _bi: usize) {}
    /// A refill boundary: some slot refilled and none was removed.
    fn at_refill(&mut self, _: &Prepared, _: &mut Schedule, _: &mut ExecCtx<Self::Sig>) {}
    /// The run's dedup tallies, after handing `witness_out` what it verified.
    fn finish(self, _witness_out: Option<&mut Option<Vec<Vec<Ev>>>>) -> MemoCounters {
        MemoCounters::default()
    }
}

impl Observe for () {
    type Sig = ();
}

/// The warp schedule of one SM: its resident blocks, the round-robin order
/// over their warps, and the queue that refills them. Kept apart from the
/// pipeline state ([`ExecCtx`]) so an issue can lend one resident block to
/// [`ExecCtx::execute`] mutably.
struct Schedule<'q> {
    resident: Vec<Resident>,
    /// The flattened warp schedule, maintained incrementally: every block of
    /// a launch has the same warp count, so an in-place refill leaves the
    /// schedule unchanged; only removing a slot (grid tail) invalidates it.
    ///
    /// Each slot also caches the warp's last computed stall verdict. A
    /// stalled warp's (ready_at, reason) depends only on its own state
    /// (frames, scoreboard, resume_at), which changes exactly when the warp
    /// issues, its block releases a barrier, or the slot is refilled with a
    /// new block — the three places that clear the cache. Between those
    /// events the scan skips the settle + gate-list recomputation.
    order: Vec<Slot>,
    /// Where the next issue scan starts (`< order.len()`).
    rr: usize,
    /// `order` no longer matches `resident` (a slot was removed).
    order_stale: bool,
    /// A block's all_done() can only flip after some warp retires; gate the
    /// retire/refill scan on that event instead of re-checking every
    /// scheduler iteration.
    check_retire: bool,
    queue: &'q [(u32, u32)],
    /// The next block of `queue` to become resident.
    next: usize,
    /// Warps per block.
    wpb: usize,
}

impl<'q> Schedule<'q> {
    fn new(p: &Prepared, queue: &'q [(u32, u32)]) -> Self {
        let (kernel, dims) = (p.spec.kernel, &p.spec.dims);
        let slots = queue.len().min(p.blocks_per_sm as usize);
        Schedule {
            resident: queue[..slots]
                .iter()
                .map(|&ctaid| Resident::new(kernel, dims, ctaid))
                .collect(),
            order: Vec::new(),
            rr: 0,
            order_stale: true,
            check_retire: true,
            queue,
            next: slots,
            wpb: dims.threads_per_block().div_ceil(32) as usize,
        }
    }

    /// Blocks of the queue not yet started.
    fn left(&self) -> usize {
        self.queue.len() - self.next
    }

    /// Forgets the cached stall verdicts of block `bi`'s warps.
    fn invalidate(&mut self, bi: usize) {
        for s in self.order.iter_mut().filter(|s| s.bi == bi) {
            s.cached = None;
        }
    }

    /// Moves every absolute-cycle value of the schedule and of `pipe` on by
    /// `d` cycles. All scheduler comparisons are invariant under a uniform
    /// shift, so the machine continues as if it had run those cycles.
    fn shift<S>(&mut self, pipe: &mut ExecCtx<S>, d: u64) {
        pipe.cycle += d;
        pipe.chan_free += d;
        for w in self.resident.iter_mut().flat_map(|r| r.warps.iter_mut()) {
            for t in w.reg_ready.iter_mut() {
                *t += d;
            }
            w.resume_at += d;
        }
        for (t, _) in self.order.iter_mut().filter_map(|s| s.cached.as_mut()) {
            *t += d;
        }
    }

    /// Retires completed blocks and refills their slots from the queue, or
    /// removes them at the grid tail. Returns whether this was a refill
    /// boundary the period detector may inspect: some slot refilled and
    /// none was removed.
    fn retire(&mut self, stats: &mut SmStats, obs: &mut impl Observe) -> bool {
        self.check_retire = false;
        let mut refilled = false;
        let mut i = 0;
        while i < self.resident.len() {
            if !self.resident[i].all_done() {
                i += 1;
                continue;
            }
            stats.blocks_executed += 1;
            obs.retired(i);
            if let Some(&ctaid) = self.queue.get(self.next) {
                self.next += 1;
                self.resident[i].reset(ctaid);
                self.invalidate(i);
                refilled = true;
                i += 1;
            } else {
                // Grid tail: the slot goes, and the observer's slots realign.
                obs.removed(i);
                self.resident.remove(i);
                self.order_stale = true;
            }
        }
        refilled && !self.order_stale
    }

    /// Lays `order` out afresh over the resident blocks' warps.
    fn rebuild_order(&mut self) {
        self.order_stale = false;
        self.order.clear();
        for (bi, r) in self.resident.iter().enumerate() {
            let warps = 0..r.warps.len();
            self.order.extend(warps.map(|wi| Slot {
                bi,
                wi,
                cached: None,
            }));
        }
        // A grid-tail removal may have shrunk the schedule under `rr`. The
        // scan order is `rr` mod n either way, and no snapshot sees the
        // change: the queue is empty once a slot is removed.
        self.rr %= self.order.len();
    }

    /// One issue scan in round-robin order from `rr`: issues the first
    /// ready warp through `pipe` and returns `None`, or returns the earliest
    /// future candidate and its stall reason (`u64::MAX` when no warp can
    /// become ready: all parked at a barrier, or retired during the scan).
    fn issue<O: Observe>(
        &mut self,
        decoded: &DecodedKernel,
        pipe: &mut ExecCtx<O::Sig>,
        obs: &mut O,
    ) -> Option<(u64, StallReason)> {
        if self.order_stale {
            self.rebuild_order();
        }
        let n = self.order.len();
        let mut best = (u64::MAX, StallReason::Drain);
        for k in 0..n {
            // `rr < n`, so one conditional wrap is the `% n`.
            let idx = if self.rr + k < n {
                self.rr + k
            } else {
                self.rr + k - n
            };
            let Slot { bi, wi, cached } = self.order[idx];
            let block = &mut self.resident[bi];
            let warp = &mut block.warps[wi];
            if warp.done || warp.at_barrier {
                continue;
            }
            let (ready_at, reason) = match cached {
                Some(c) => c,
                None if !warp.settle() => {
                    self.check_retire = true;
                    continue; // retired just now
                }
                None => stall_verdict(warp, &decoded.ops[warp.pc() as usize]),
            };
            if ready_at > pipe.cycle {
                self.order[idx].cached = Some((ready_at, reason));
                if ready_at < best.0 {
                    best = (ready_at, reason);
                }
                continue;
            }
            let pc = warp.pc();
            let pre_mask = warp.active_mask();
            pipe.cycle += pipe.execute(block, wi, &decoded.ops[pc as usize]);
            obs.issued(bi, wi, pc, pre_mask, pipe.sig);
            self.rr = if idx + 1 < n { idx + 1 } else { 0 };
            self.order[idx].cached = None; // the warp advanced
            let warp = &block.warps[wi];
            self.check_retire |= warp.done;
            if (warp.at_barrier || warp.done)
                && block.release_barrier(pipe.cycle + pipe.p.cfg.barrier_latency)
            {
                self.invalidate(bi); // resume_at moved for the whole block
            }
            return None;
        }
        Some(best)
    }

    /// Called when a scan found no warp that can become ready: every live
    /// warp is parked at a barrier but the block never filled — or warps
    /// retired during the scan (`check_retire` is set, so the retire scan
    /// runs next). A genuine deadlock (divergent barrier) is a kernel bug.
    fn check_deadlock(&self, kernel: &str) {
        let any_live = self
            .resident
            .iter()
            .any(|b| b.warps.iter().any(|w| !w.done && !w.at_barrier));
        let all_done = self.resident.iter().all(|b| b.all_done());
        if !any_live && !all_done {
            panic!("kernel {kernel}: deadlock — all warps parked at a barrier");
        }
    }
}

/// When a stalled warp's next instruction can issue, and why it waits.
///
/// The micro-op's precomputed gate set lists exactly the registers the
/// reference engine's operand walk would consider, in the same order, so
/// the strict-`>` max keeps the same gate attribution.
#[inline]
fn stall_verdict(warp: &Warp, mop: &MicroOp) -> (u64, StallReason) {
    let mut reg_ready = 0u64;
    let mut gate = None;
    for &r in mop.gate_regs() {
        let ready = warp.reg_ready[r as usize];
        if ready > reg_ready {
            reg_ready = ready;
            gate = Some(warp.reg_source[r as usize]);
        }
    }
    // A post-barrier pipeline drain dominates register readiness: attribute
    // that wait to the barrier, not the ALU/memory.
    let reason = if warp.resume_at > reg_ready {
        StallReason::Barrier
    } else {
        match gate {
            Some(RegSource::Memory) => StallReason::Memory,
            Some(RegSource::Alu) => StallReason::AluDependency,
            // Defensive: gate is None only when no register is pending, and
            // then the wait is a barrier drain (handled above) —
            // unreachable today.
            None => StallReason::IssueBusy,
        }
    };
    (reg_ready.max(warp.resume_at), reason)
}

/// One observed block-refill boundary of the period detector: the absolute
/// progress at the instant the scheduler state had a given (relative)
/// snapshot. A later recurrence of the snapshot yields the per-period
/// deltas by subtraction.
struct Boundary {
    cycle: u64,
    stats: SmStats,
    consumed: usize,
}

/// Distinct boundary states tracked before giving up on period detection
/// (a transient longer than this means the launch is not steady-state).
const DEDUP_MAX_BOUNDARIES: usize = 64;

/// The dedup period detector, a recording SM's [`Observe`]: the witness
/// recorder every issue feeds, the boundary states seen at block refills,
/// and the replay that fast-forwards whole periods once a state recurs.
struct PeriodDetector {
    recorder: WitnessRecorder,
    boundaries: HashMap<Vec<u64>, Boundary>,
    /// Replay-executor state for the fast-forward path, allocated on the
    /// first period hit and recycled for every replayed block after it.
    replay: Option<ReplayScratch>,
    memo: MemoCounters,
}

impl Observe for PeriodDetector {
    type Sig = Sig;

    fn issued(&mut self, bi: usize, wi: usize, pc: u32, mask: u32, sig: Sig) {
        self.recorder.record(bi, wi, Ev { pc, mask, sig });
    }

    fn retired(&mut self, bi: usize) {
        self.recorder.on_retire(bi);
    }

    fn removed(&mut self, bi: usize) {
        self.recorder.on_remove(bi);
    }

    /// Remembers the machine state, or, when the state recurs,
    /// fast-forwards whole periods of the queue.
    fn at_refill(&mut self, p: &Prepared, sched: &mut Schedule, pipe: &mut ExecCtx<Sig>) {
        let rec = &mut self.recorder;
        if !rec.valid || !rec.rep_done() || sched.left() == 0 {
            return;
        }
        debug_assert_eq!(sched.order.len(), sched.resident.len() * sched.wpb);
        let n_boundaries = self.boundaries.len();
        match self.boundaries.entry(Self::snapshot(rec, sched, pipe)) {
            Entry::Occupied(occ) => {
                let b = occ.get();
                let d_cycle = pipe.cycle - b.cycle;
                let d_consumed = sched.next - b.consumed;
                if d_consumed > 0 && d_cycle > 0 && sched.left() >= 2 * d_consumed {
                    let d_stats = pipe.stats.delta_since(&b.stats);
                    self.fast_forward(p, sched, pipe, (d_cycle, d_consumed, d_stats));
                }
            }
            Entry::Vacant(v) if n_boundaries < DEDUP_MAX_BOUNDARIES => {
                v.insert(Boundary {
                    cycle: pipe.cycle,
                    stats: pipe.stats.clone(),
                    consumed: sched.next,
                });
            }
            // Transient too long: stop paying the recording overhead.
            Entry::Vacant(_) => rec.valid = false,
        }
    }

    fn finish(self, witness_out: Option<&mut Option<Vec<Vec<Ev>>>>) -> MemoCounters {
        if let Some(out) = witness_out {
            *out = self.recorder.take_verified();
        }
        self.memo
    }
}

impl PeriodDetector {
    fn new(sched: &Schedule) -> Self {
        PeriodDetector {
            recorder: WitnessRecorder::new(sched.resident.len(), sched.wpb),
            boundaries: HashMap::new(),
            replay: None,
            memo: MemoCounters::default(),
        }
    }

    /// Applies whole periods of `d_consumed` blocks, `d_cycle` cycles and
    /// `d_stats` counters while the queue holds two or more, each after its
    /// blocks replay clean. The skipped windows also involve the currently
    /// resident blocks: their full event streams must match the
    /// representative for the measured deltas to transfer to them. A failed
    /// replay commits nothing and stops recording, and the SM simulates on
    /// from exactly the state it had.
    fn fast_forward(
        &mut self,
        p: &Prepared,
        sched: &mut Schedule,
        pipe: &mut ExecCtx<Sig>,
        (d_cycle, d_consumed, d_stats): (u64, usize, SmStats),
    ) {
        let rec = &mut self.recorder;
        let scratch = self.replay.get_or_insert_with(|| ReplayScratch::new(p));
        let (rep, mem) = (rec.rep(), p.spec.mem);
        let mut ok = sched.resident.iter().all(|r| {
            let ctaid = r.warps[0].ctaid;
            replay_block(p, ctaid, rep, &mut WriteBuf::new(mem), scratch)
        });
        while ok && sched.left() >= 2 * d_consumed {
            let mut buf = WriteBuf::new(mem);
            let period = &sched.queue[sched.next..][..d_consumed];
            ok = period
                .iter()
                .all(|&ctaid| replay_block(p, ctaid, rep, &mut buf, scratch));
            if ok {
                buf.commit();
                sched.next += d_consumed;
                self.memo.dedup_fast_blocks += d_consumed as u64;
                pipe.stats.add_delta(&d_stats);
                sched.shift(pipe, d_cycle);
            }
        }
        if !ok {
            self.memo.dedup_fallbacks += 1;
            rec.valid = false;
        }
    }

    /// Serializes the SM's timing-relevant state — scheduler, scoreboards
    /// and constant-cache tags — *relative to the current cycle* at a
    /// block-refill boundary. Two boundaries with equal snapshots (plus
    /// witness-verified block streams) evolve identically, so the machine
    /// is periodic between them.
    ///
    /// Values already in the past are canonicalized to 0 — the scheduler
    /// only ever compares them against `cycle`, never against each other on
    /// a path that matters: a warp whose `ready_at` is past issues
    /// regardless of the gate attribution, so the attribution is dropped
    /// for rel 0 entries.
    fn snapshot(rec: &WitnessRecorder, sched: &Schedule, pipe: &ExecCtx<Sig>) -> Vec<u64> {
        let cycle = pipe.cycle;
        let mut s = Vec::with_capacity(4 + sched.resident.len() * sched.wpb * 8);
        s.push(sched.resident.len() as u64);
        s.push(sched.rr as u64);
        s.push(pipe.chan_free.saturating_sub(cycle));
        for (bi, r) in sched.resident.iter().enumerate() {
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
                // Witness cursor: the same pc at different loop iterations
                // of the block must not alias.
                s.push(rec.cursor(bi, wi) as u64);
                s.push(match sched.order[bi * sched.wpb + wi].cached {
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
        // loads miss depends on what its predecessors left resident, so the
        // tags are recurring state like the scoreboard. Everything above is
        // self-delimiting, so the optional tail cannot alias it; a cache
        // that was never filled (every kernel without constant loads) adds
        // nothing.
        let tags = pipe.const_cache.tags();
        if tags.iter().any(|&t| t != u64::MAX) {
            s.extend_from_slice(tags);
        }
        s
    }
}

/// The SM's pipeline state: the clock, the DRAM channel, the constant and
/// texture caches and the counters — everything an issued instruction's
/// timing reads or advances. Built once per [`run_sm`]; the [`Schedule`]
/// lends it one resident block per issue.
struct ExecCtx<'a, S> {
    p: &'a Prepared<'a>,
    stats: SmStats,
    cycle: u64,
    /// When this SM's slice of the DRAM channel is next free.
    chan_free: u64,
    const_cache: TagCache,
    tex_cache: TagCache,
    /// Distinct texture lines of one warp access, pooled across accesses.
    tex_lines: Vec<u32>,
    /// The last issued instruction's signature ([`Sig`] on a recording SM,
    /// `()` otherwise), from the same results replay derives it from.
    sig: S,
    /// Row-shape tally (flushed to the launching context's counters once
    /// per `run_sm`).
    rows: RowCounters,
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

/// The bytes one warp local (spill) access moves: one uncoalesced
/// transaction per active lane.
#[inline]
pub(crate) fn local_bytes(cfg: &GpuConfig, mask: u32) -> u32 {
    mask.count_ones() * cfg.uncoalesced_txn_bytes
}

/// The functional half of one warp constant load, for both executors: every
/// active lane reads its word into `dst`, and `distinct[..n]` receives the
/// distinct addresses in first-lane order — what the load serializes over
/// and what [`Sig`] fingerprints (an out-parameter: returning the
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

impl<'a, S: Signature> ExecCtx<'a, S> {
    fn new(p: &'a Prepared<'a>) -> Self {
        let cfg = p.cfg;
        ExecCtx {
            p,
            stats: SmStats::default(),
            cycle: 0,
            chan_free: 0,
            const_cache: TagCache::new(cfg.const_cache_bytes, 64),
            tex_cache: TagCache::new(cfg.tex_cache_bytes, cfg.tex_line_bytes),
            tex_lines: Vec::new(),
            sig: S::default(),
            rows: RowCounters::default(),
        }
    }

    /// Issues a global-memory request of `bytes` through this SM's channel
    /// slice; returns the completion cycle.
    fn memory_request(&mut self, bytes: u64) -> u64 {
        let bpc = self.p.cfg.dram_bytes_per_cycle_per_sm();
        let start = self.cycle.max(self.chan_free);
        let service = (bytes as f64 / bpc).ceil() as u64;
        self.chan_free = start + service;
        start + self.p.cfg.global_latency
    }

    /// Probes the per-SM constant cache with one warp load's distinct
    /// addresses (misses fill from DRAM through this SM's channel); returns
    /// when the data is ready and which unit delivers it. The witness event
    /// carries the address signature only: hit or miss is the cache's state,
    /// which the period detector snapshots, not a property of the block.
    fn const_access(&mut self, distinct: &[u32]) -> (u64, RegSource) {
        self.sig.constant(distinct);
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
            (self.cycle + self.p.cfg.const_hit_latency, RegSource::Alu)
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
        let halves = addrs.coalesce(self.p.cfg);
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
        self.sig.global(&halves);
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
        let bytes = local_bytes(self.p.cfg, mask) as u64;
        self.stats.global_bytes += bytes;
        self.sig.local(bytes as u32);
        self.memory_request(bytes)
    }

    /// Accounts one warp shared load or store; returns the extra issue
    /// cycles its bank conflicts serialize over.
    fn shared_access(&mut self, addrs: &LaneAddrs) -> u64 {
        self.tally_addrs(addrs);
        let degree = addrs.smem_degree(self.p.cfg);
        let extra = self.p.cfg.issue_cycles * (degree as u64 - 1);
        self.stats.smem_conflict_extra_cycles += extra;
        self.sig.shared(degree);
        extra
    }

    /// How the timed engine reports a shared `load` or `store` whose lane
    /// address `a` lies past the block's `len` words.
    #[cold]
    fn shared_out_of_bounds(&self, what: &str, a: u32, len: usize) -> ! {
        let kernel = &self.p.spec.kernel.name;
        panic!(
            "kernel {kernel}: shared {what} out of bounds ({} >= {len})",
            a / 4
        )
    }

    /// Executes the next instruction of warp `wi` in `block`, starting its
    /// witness signature from zero. Returns the issue-port occupancy in
    /// cycles.
    fn execute(&mut self, block: &mut Resident, wi: usize, mop: &MicroOp) -> u64 {
        let (cfg, params) = (self.p.cfg, self.p.spec.params);
        self.sig = S::default();
        let warp = &mut block.warps[wi];
        let pc = warp.pc() as usize;
        let inst = mop.inst;
        let mask = warp.active_mask();
        let lanes = mask.count_ones();
        self.stats.count_inst(mop.class, lanes, mop.flops);

        // Register-only instructions: what they do is `Warp::exec_reg_only`;
        // when the result lands and how long the issue port is held is a
        // function of the predecoded issue class alone.
        if warp.exec_reg_only(&inst, mask, params) {
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
            Inst::Atom { .. } => self.do_atom(block, wi, inst),
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
                        self.sig.branch(m);
                        warp.take_branch(m, target.0, reconv.0, next_pc);
                    }
                    Some(p) => {
                        let taken = warp.taken_mask(p.reg.0, p.negate, mask);
                        self.sig.branch(taken);
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
                    self.p.spec.kernel.name
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

    /// A warp atomic: every active lane's read-modify-write, in lane order.
    fn do_atom(&mut self, block: &mut Resident, wi: usize, inst: Inst) -> u64 {
        let Inst::Atom {
            op,
            space,
            dst,
            addr,
            off,
            src,
        } = inst
        else {
            unreachable!("do_atom issues atomics")
        };
        debug_assert!(!self.p.dedup, "dedup witness on atomic");
        let (cfg, params) = (self.p.cfg, self.p.spec.params);
        let (warp, smem) = (&mut block.warps[wi], &mut block.smem);
        let mask = warp.active_mask();
        let addrs = addr_row(warp, addr, off, params);
        let srcs = warp.operand_row(src, params);
        let completion;
        match space {
            Space::Global => {
                let mut bytes = 0u64;
                for lane in 0..32 {
                    if mask >> lane & 1 == 1 {
                        let old = self.p.spec.mem.atomic(op, addrs[lane], srcs[lane]);
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
        cfg.issue_cycles + 2 * (mask.count_ones().saturating_sub(1)) as u64
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
        let (cfg, params) = (self.p.cfg, self.p.spec.params);
        let (warps, smem) = (&mut block.warps, &mut block.smem[..]);
        let warp = &mut warps[wi];
        let mask = warp.active_mask();
        match space {
            Space::Global => {
                // A shaped address row gets the coalescing verdict of both
                // halves in closed form and moves its runs whole.
                let addrs = LaneAddrs::of(warp, mask, addr, off, params);
                let bytes = self.global_access(&addrs, false);
                let mut mem = self.p.spec.mem;
                addrs
                    .load(&mut mem, warp.reg_row_mut(dst))
                    .unwrap_or_else(|a| global_out_of_bounds("read", a));
                let done = self.memory_request(bytes);
                warp.reg_ready[dst as usize] = done;
                warp.reg_source[dst as usize] = RegSource::Memory;
                cfg.issue_cycles
            }
            Space::Shared => {
                let addrs = LaneAddrs::of(warp, mask, addr, off, params);
                let extra = self.shared_access(&addrs);
                addrs
                    .load(smem, warp.reg_row_mut(dst))
                    .unwrap_or_else(|a| self.shared_out_of_bounds("load", a, smem.len()));
                warp.reg_ready[dst as usize] = self.cycle + cfg.smem_latency + extra;
                warp.reg_source[dst as usize] = RegSource::Alu;
                cfg.issue_cycles + extra
            }
            Space::Const => {
                let mut distinct = [0u32; 32];
                let n = load_const(warp, dst, addr, off, params, self.p.spec.mem, &mut distinct)
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
                debug_assert!(!self.p.dedup, "dedup witness on texture-cache load");
                let addrs = addr_row(warp, addr, off, params);
                let (mem, lines) = (self.p.spec.mem, &mut self.tex_lines);
                lines.clear();
                let dst_row = warp.reg_row_mut(dst);
                for (lane, &a) in addrs.iter().enumerate() {
                    if mask >> lane & 1 == 1 {
                        let g = mem.tex_to_global(a);
                        let line = g / cfg.tex_line_bytes;
                        if !lines.contains(&line) {
                            lines.push(line);
                        }
                        dst_row[lane] = mem.read(g);
                    }
                }
                let mut miss_bytes = 0u64;
                for i in 0..lines.len() {
                    let line = self.tex_lines[i];
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
                let addrs = addr_row(warp, addr, off, params);
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
        let (cfg, params) = (self.p.cfg, self.p.spec.params);
        let warp = &mut block.warps[wi];
        let mask = warp.active_mask();
        match space {
            Space::Global => {
                let addrs = LaneAddrs::of(warp, mask, addr, off, params);
                let srcs = warp.operand_row(src, params);
                let bytes = self.global_access(&addrs, true);
                let mut mem = self.p.spec.mem;
                addrs
                    .store(&mut mem, &srcs)
                    .unwrap_or_else(|a| global_out_of_bounds("write", a));
                let _ = self.memory_request(bytes); // bandwidth only
                cfg.issue_cycles
            }
            Space::Shared => {
                let addrs = LaneAddrs::of(warp, mask, addr, off, params);
                let srcs = warp.operand_row(src, params);
                let extra = self.shared_access(&addrs);
                let smem = &mut block.smem[..];
                addrs
                    .store(smem, &srcs)
                    .unwrap_or_else(|a| self.shared_out_of_bounds("store", a, smem.len()));
                cfg.issue_cycles + extra
            }
            Space::Local => {
                let addrs = addr_row(warp, addr, off, params);
                let srcs = warp.operand_row(src, params);
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
    use crate::launch::LaunchSpec;
    use g80_isa::builder::KernelBuilder;
    use g80_isa::inst::{CmpOp, Pred, Reg, Scalar};

    /// `ys[i] = tid` for the block's threads, then, in block 0 only, one more
    /// instruction: every other block is one class, block 0 another.
    fn tid_store_kernel() -> Kernel {
        let mut b = KernelBuilder::new("tid_store");
        let ys = b.param();
        let tid = b.tid_x();
        let ntid = b.ntid_x();
        let cta = b.ctaid_x();
        let i = b.imad(cta, ntid, tid);
        let byte = b.shl(i, 2u32);
        let ya = b.iadd(byte, ys);
        b.st_global(ya, 0, tid);
        let first = b.setp(CmpOp::Eq, Scalar::U32, cta, 0u32);
        b.if_(Pred::if_true(first), |b| {
            b.iadd(tid, 1u32);
        });
        b.build()
    }

    /// A one-SM launch of `kernel` over `blocks` 32-thread blocks, two
    /// resident at a time, storing from word 0 on.
    fn launch<'a>(
        cfg: &'a GpuConfig,
        kernel: &'a Kernel,
        mem: &'a DeviceMemory,
        blocks: u32,
        dedup: bool,
    ) -> Prepared<'a> {
        let spec = LaunchSpec {
            kernel,
            dims: LaunchDims {
                grid: (blocks, 1),
                block: (32, 1, 1),
            },
            params: &[Value::ZERO],
            mem,
        };
        let mut p = Prepared::for_test(cfg, spec, 2, dedup);
        // Block 0's extra instruction makes the kernel ineligible; these
        // tests drive the detector regardless.
        p.dedup = dedup;
        p
    }

    fn queue(ctaids: impl IntoIterator<Item = u32>) -> Vec<(u32, u32)> {
        ctaids.into_iter().map(|x| (x, 0)).collect()
    }

    /// A long queue of one block class: the refill state recurs, whole
    /// periods fast-forward, and the SM ends with the stats and memory of
    /// the same run with detection off.
    #[test]
    fn recurring_state_fast_forwards_to_the_simulated_result() {
        let (cfg, kernel) = (GpuConfig::geforce_8800_gtx(), tid_store_kernel());
        let blocks = queue(1..49);
        let run = |dedup| {
            let mem = DeviceMemory::new(49 * 32 * 4);
            let p = launch(&cfg, &kernel, &mem, 49, dedup);
            let (stats, tally) = run_sm(&p, &blocks, None);
            (stats, tally.memo, mem.snapshot_words())
        };
        let (fast, memo, fast_mem) = run(true);
        let (slow, slow_memo, slow_mem) = run(false);
        assert!(memo.dedup_fast_blocks >= 24, "{memo:?}");
        assert_eq!(memo.dedup_fallbacks, 0);
        assert_eq!(slow_memo.dedup_fast_blocks, 0);
        assert_eq!(fast, slow);
        assert_eq!(fast_mem, slow_mem);
    }

    /// The schedule of `ctaids` (the first two resident, order built) and a
    /// detector whose representative is `rep`, complete.
    fn detector_at<'q>(
        p: &Prepared,
        ctaids: &'q [(u32, u32)],
        rep: &[Vec<Ev>],
    ) -> (Schedule<'q>, PeriodDetector) {
        let mut sched = Schedule::new(p, ctaids);
        sched.rebuild_order();
        let mut period = PeriodDetector::new(&sched);
        for (wi, evs) in rep.iter().enumerate() {
            for &ev in evs {
                period.recorder.record(0, wi, ev);
            }
        }
        period.recorder.on_retire(0);
        assert!(period.recorder.valid);
        (sched, period)
    }

    /// Past `DEDUP_MAX_BOUNDARIES` distinct refill states the launch is not
    /// steady-state: the detector stops recording.
    #[test]
    fn too_many_distinct_boundaries_stop_recording() {
        let (cfg, kernel) = (GpuConfig::geforce_8800_gtx(), tid_store_kernel());
        let mem = DeviceMemory::new(8 * 32 * 4);
        let p = launch(&cfg, &kernel, &mem, 8, true);
        let blocks = queue(1..8);
        let (mut sched, mut period) = detector_at(&p, &blocks, &[vec![]]);
        let mut pipe = ExecCtx::new(&p);
        for busy in 1..=DEDUP_MAX_BOUNDARIES as u64 {
            // The channel busy for a different time: a new state each.
            pipe.chan_free = busy;
            period.at_refill(&p, &mut sched, &mut pipe);
            assert!(period.recorder.valid, "boundary {busy}");
        }
        assert_eq!(period.boundaries.len(), DEDUP_MAX_BOUNDARIES);
        pipe.chan_free = 0;
        period.at_refill(&p, &mut sched, &mut pipe);
        assert!(!period.recorder.valid);
        assert_eq!(period.boundaries.len(), DEDUP_MAX_BOUNDARIES);
    }

    /// The state recurs, the queued blocks would replay clean, but the
    /// resident block 0 is another class: one fallback, no period applied,
    /// no write committed, and no further attempt.
    #[test]
    fn resident_failing_its_dry_replay_falls_back_once() {
        let (cfg, kernel) = (GpuConfig::geforce_8800_gtx(), tid_store_kernel());
        let mem = DeviceMemory::new(9 * 32 * 4);
        let p = launch(&cfg, &kernel, &mem, 9, true);
        let mut rep = None;
        run_sm(&p, &queue(1..5), Some(&mut rep));
        let rep = rep.expect("blocks 1 to 4 are one class");
        mem.restore_words(&[0; 9 * 32]);

        // Blocks 0 and 5 resident, 6 to 8 queued.
        let blocks = queue([0, 5, 6, 7, 8]);
        let (mut sched, mut period) = detector_at(&p, &blocks, &rep);
        let mut pipe = ExecCtx::new(&p);
        period.at_refill(&p, &mut sched, &mut pipe);
        // One block and a thousand cycles later, the same relative state.
        sched.next += 1;
        pipe.cycle += 1000;
        period.at_refill(&p, &mut sched, &mut pipe);
        assert_eq!(period.memo.dedup_fallbacks, 1);
        assert_eq!(period.memo.dedup_fast_blocks, 0);
        assert!(!period.recorder.valid);
        assert_eq!((sched.next, pipe.cycle), (3, 1000));
        assert!(
            mem.snapshot_words().iter().all(|&w| w == 0),
            "a write committed"
        );
        sched.next += 1;
        pipe.cycle += 1000;
        period.at_refill(&p, &mut sched, &mut pipe);
        assert_eq!(period.memo.dedup_fallbacks, 1);
    }

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
