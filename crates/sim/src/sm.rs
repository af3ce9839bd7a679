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
//! **Functional-at-issue, timed-completion**: an instruction's effect is
//! applied the moment it issues, by [`step`], the one executor witness
//! replay ([`crate::witness`]) runs too; the scoreboard only delays *when*
//! dependents may issue. Programs that follow the CUDA consistency rules
//! (barriers between shared-memory producers and consumers, no inter-block
//! races except commutative atomics) observe exactly the values hardware
//! would produce, while timing still exhibits latency, queueing, coalescing,
//! divergence and bank-conflict effects. [`ExecCtx::execute`] turns what
//! `step` did, for every instruction, into issue cycles, register
//! readiness, counters and the witness signature.
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
//!   issue lends it one resident block (`ExecCtx::execute`);
//! * **the observer** (`Observe`), chosen once per run: the period detector
//!   (`PeriodDetector`: witness recorder, boundary states, replay scratch)
//!   on an SM that records, `()` otherwise. The schedule calls it at issue,
//!   retire, remove, refill and the end; the detector fast-forwards whole
//!   periods (`Schedule::shift` moves both other parts' clocks).
//!
//! None of this may change simulated timing: the `g80-oracle` crate keeps
//! the original engine as an executable spec, and the `golden_stats` test
//! asserts bit-identical [`crate::KernelStats`] between the two.

use crate::cost::{self, TagCache};
use crate::counters::{MemoCounters, RowCounters, SmStats, StallReason, TallyKey, WorkCounters};
use crate::launch::Prepared;
use crate::memory::{const_out_of_bounds, global_out_of_bounds};
use crate::step::{step, Access, Did, LaneAddrs, Refusal, Scratch};
use crate::warp::{RegSource, Warp};
use crate::witness::{
    replay_block, Ev, Rep, ReplayScratch, Sig, Signature, WitnessRecorder, WriteBuf,
};
use g80_isa::Row;
use g80_isa::{DecodedKernel, IssueClass, MemKind, MicroOp};
use g80_isa::{Kernel, Value};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

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
        .max(g80_isa::num_regs(&kernel.code) as u32)
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

/// What one [`run_sm`] adds to its context's tallies (row shapes, the
/// dedup fields of [`MemoCounters`], host work); the caller flushes it once
/// per run.
#[derive(Default)]
pub(crate) struct SmTally {
    pub rows: RowCounters,
    pub memo: MemoCounters,
    pub work: WorkCounters,
}

/// How an SM run watches its blocks: which [`Observe`] impl [`run_sm`]
/// picks.
pub(crate) enum Watch<'f> {
    /// No recorder and no signature work.
    Off,
    /// The period detector when [`Prepared::dedup`] is set and the queue
    /// refills (more blocks than slots), else nothing.
    Periods,
    /// A donor SM: the period detector, whose representative, the moment
    /// it freezes, goes to the callback once, as a shared copy.
    Donor(&'f mut dyn FnMut(Arc<Rep>)),
}

/// Simulates one SM over its assigned blocks. Deterministic; aborts with a
/// [`crate::guard::WatchdogAbort`] past the launch's watchdog budget.
///
/// The run's [`Observe`] impl is chosen here, once, from `watch`. A
/// recording SM's [`PeriodDetector`] fast-forwards steady-state periods of
/// the block stream (timing by recurrence of the scheduler-state snapshot,
/// functional effects by witness-verified replay). Any other SM runs under
/// `()`, with no recorder and no signature work. Stats are bit-identical
/// either way.
///
/// The third value says whether *every* block this SM executed verified
/// class-identical to the representative: then another SM whose
/// equally-long queue replays clean against the streams a [`Watch::Donor`]
/// was handed evolves identically and may adopt this SM's stats outright
/// (donor-SM reuse in [`crate::launch`]).
pub(crate) fn run_sm(p: &Prepared, queue: &[(u32, u32)], watch: Watch) -> (SmStats, SmTally, bool) {
    let sched = Schedule::new(p, queue);
    let refills = queue.len() > sched.resident.len();
    match watch {
        Watch::Donor(on_freeze) => observed(p, PeriodDetector::new(&sched, Some(on_freeze)), sched),
        Watch::Periods if p.dedup && refills => {
            observed(p, PeriodDetector::new(&sched, None), sched)
        }
        Watch::Periods | Watch::Off => observed(p, (), sched),
    }
}

/// Runs `queue` as a donor SM: its representative, if every block verified.
#[cfg(test)]
pub(crate) fn donor_rep(p: &Prepared, queue: &[(u32, u32)]) -> Option<Arc<Rep>> {
    let mut rep = None;
    let mut keep = |frozen| rep = Some(frozen);
    let verified = run_sm(p, queue, Watch::Donor(&mut keep)).2;
    rep.filter(|_| verified)
}

/// [`run_sm`] under the observer `obs`.
fn observed<O: Observe>(p: &Prepared, mut obs: O, mut sched: Schedule) -> (SmStats, SmTally, bool) {
    let decoded = &p.info.decoded;
    let mut pipe = ExecCtx::new(p);
    loop {
        if pipe.cycle >= p.watchdog {
            let insts = pipe.stats.warp_instructions;
            crate::guard::watchdog_abort(&p.spec.kernel.name, p.watchdog, pipe.cycle, insts);
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
        pipe.work.event_skips += 1;
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
    let mut tally = SmTally {
        rows: pipe.rows,
        work: pipe.work,
        ..SmTally::default()
    };
    // A scan per issued instruction and per event skip, counted here, not
    // per issue: the issued ones are the SM's warp instructions less those
    // a fast-forward added ([`Observe::finish`] takes those off).
    tally.work.issue_scans = pipe.stats.warp_instructions + tally.work.event_skips;
    let verified = obs.finish(&mut tally);
    if p.dedup {
        tally.memo.dedup_sim_blocks = sched.queue.len() as u64 - tally.memo.dedup_fast_blocks;
    }
    (pipe.stats, tally, verified)
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
    /// Adds the run's dedup and replay tallies, and takes the instructions
    /// it fast-forwarded off `issue_scans`; says whether every block
    /// verified class-identical.
    fn finish(self, _tally: &mut SmTally) -> bool {
        false
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
            pipe.work.slots_visited += k as u64 + 1;
            return None;
        }
        pipe.work.slots_visited += n as u64;
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
struct PeriodDetector<'f> {
    recorder: WitnessRecorder,
    boundaries: HashMap<Vec<u64>, Boundary>,
    /// Replay-executor state for the fast-forward path, allocated on the
    /// first period hit and recycled for every replayed block after it.
    replay: Option<ReplayScratch>,
    memo: MemoCounters,
    /// A donor's hand-off of its frozen representative ([`Watch::Donor`]).
    on_freeze: Option<&'f mut dyn FnMut(Arc<Rep>)>,
    /// Warp instructions the fast-forwards added to the SM's stats without
    /// issuing them.
    fast_insts: u64,
}

impl Observe for PeriodDetector<'_> {
    type Sig = Sig;

    fn issued(&mut self, bi: usize, wi: usize, pc: u32, mask: u32, sig: Sig) {
        self.recorder.record(bi, wi, Ev { pc, mask, sig });
    }

    fn retired(&mut self, bi: usize) {
        if self.recorder.on_retire(bi) {
            if let Some(on_freeze) = self.on_freeze.take() {
                on_freeze(Arc::new(self.recorder.rep().to_vec()));
            }
        }
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

    fn finish(self, tally: &mut SmTally) -> bool {
        tally.memo = self.memo;
        tally.work.issue_scans -= self.fast_insts;
        tally.work.replayed_insts += self.replay.map_or(0, |r| r.replayed);
        self.recorder.take_verified().is_some()
    }
}

impl<'f> PeriodDetector<'f> {
    fn new(sched: &Schedule, on_freeze: Option<&'f mut dyn FnMut(Arc<Rep>)>) -> Self {
        PeriodDetector {
            recorder: WitnessRecorder::new(sched.resident.len(), sched.wpb),
            boundaries: HashMap::new(),
            replay: None,
            memo: MemoCounters::default(),
            on_freeze,
            fast_insts: 0,
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
                self.fast_insts += d_stats.warp_instructions;
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
    /// The last issued instruction's signature ([`Sig`] on a recording SM,
    /// `()` otherwise), from the same results replay derives it from.
    sig: S,
    /// Row-shape tally (flushed to the launching context's counters once
    /// per `run_sm`).
    rows: RowCounters,
    /// Host work: slots visited and event skips (`issue_scans` is derived
    /// when the run ends).
    work: WorkCounters,
    /// The rows [`step`] expands operands into.
    tmp: [Row; 3],
}

impl<'a, S: Signature> ExecCtx<'a, S> {
    fn new(p: &'a Prepared<'a>) -> Self {
        let cfg = p.cfg;
        ExecCtx {
            p,
            stats: SmStats::default(),
            cycle: 0,
            chan_free: 0,
            const_cache: TagCache::constant(cfg),
            tex_cache: TagCache::texture(cfg),
            sig: S::default(),
            rows: RowCounters::default(),
            work: WorkCounters::default(),
            tmp: [[Value::ZERO; 32]; 3],
        }
    }

    /// Issues a global-memory request of `bytes` through this SM's channel
    /// slice; returns the completion cycle.
    fn memory_request(&mut self, bytes: u64) -> u64 {
        cost::dram_request(self.p.cfg, self.cycle, &mut self.chan_free, bytes)
    }

    /// Counts which kind of row resolved a memory access's addresses.
    fn tally_addrs(&mut self, addrs: &LaneAddrs) {
        match addrs {
            LaneAddrs::Shaped(t, _) if t.is_uniform() => self.rows.uniform += 1,
            LaneAddrs::Shaped(..) => self.rows.affine += 1,
            LaneAddrs::Lanes(..) => self.rows.full += 1,
        }
    }

    /// Executes the next instruction of warp `wi` in `block` through
    /// [`step`], starting its witness signature from zero, and times what it
    /// did. Returns the issue-port occupancy in cycles.
    fn execute(&mut self, block: &mut Resident, wi: usize, mop: &MicroOp) -> u64 {
        let cfg = self.p.cfg;
        self.sig = S::default();
        let (warp, smem) = (&mut block.warps[wi], &mut block.smem);
        let lanes = warp.active_mask().count_ones();
        self.stats.count_inst(mop.class, lanes, mop.flops);
        let (mut mem, mut scratch) = (self.p.spec.mem, Scratch::default());
        let tmp = &mut self.tmp;
        let did = match step::<false, _>(self.p, mop.inst, warp, smem, &mut mem, &mut scratch, tmp)
        {
            Ok(did) => did,
            Err(r) => self.refused(r, mop, &block.warps[wi], block.smem.len()),
        };
        let dst = mop.dst as usize;
        // When a result lands and how long the issue port is held: for a
        // register-only instruction a function of its issue class alone.
        let (ready, source, issue) = match did {
            Did::Reg => {
                self.rows.tally(&warp.shapes[dst]);
                let (latency, issue) = match mop.issue {
                    IssueClass::Normal => (cfg.alu_latency, cfg.issue_cycles),
                    IssueClass::Imul => (cfg.alu_latency, cfg.imul_issue_cycles),
                    IssueClass::Sfu => (cfg.sfu_latency, cfg.sfu_issue_cycles),
                };
                (self.cycle + latency, RegSource::Alu, issue)
            }
            Did::Load(access) => {
                if let Access::Const(..) = access {
                    self.rows.tally(&warp.shapes[dst]);
                }
                let (ready, source, extra) = self.access(access, false);
                (ready, source, cfg.issue_cycles + extra)
            }
            Did::Store(access) => return cfg.issue_cycles + self.access(access, true).2,
            Did::Branch(taken, divergent) => {
                self.sig.branch(taken);
                self.stats.divergent_branches += divergent as u64;
                return cfg.issue_cycles;
            }
            Did::Barrier | Did::Exit => return cfg.issue_cycles,
        };
        warp.reg_ready[dst] = ready;
        warp.reg_source[dst] = source;
        issue
    }

    /// Accounts one warp memory access — counters, row tally, witness
    /// signature, DRAM channel — and returns a load's ready cycle, its source
    /// and the issue cycles beyond one. A half-warp with no active lane
    /// counts nothing. Inlined, as the per-space accessors it replaced were.
    #[inline(always)]
    fn access(&mut self, access: Access, store: bool) -> (u64, RegSource, u64) {
        let cfg = self.p.cfg;
        let stats = &mut self.stats;
        let transactions = match store {
            true => &mut stats.global_st_transactions,
            false => &mut stats.global_ld_transactions,
        };
        match access {
            Access::Global(addrs) => {
                // Closed form for both halves of a shaped address row.
                let halves = addrs.coalesce(cfg);
                let mut bytes = 0u64;
                for acc in halves.iter().filter(|acc| acc.transactions > 0) {
                    *transactions += acc.transactions as u64;
                    bytes += acc.bytes;
                    if acc.coalesced {
                        stats.coalesced_half_warps += 1;
                    } else {
                        stats.uncoalesced_half_warps += 1;
                    }
                }
                stats.global_bytes += bytes;
                self.sig.global(&halves);
                self.tally_addrs(addrs);
                (self.memory_request(bytes), RegSource::Memory, 0)
            }
            Access::Shared(addrs) => {
                let degree = addrs.smem_degree(cfg);
                let extra = cfg.issue_cycles * (degree as u64 - 1);
                stats.smem_conflict_extra_cycles += extra;
                self.sig.shared(degree);
                self.tally_addrs(addrs);
                (self.cycle + cfg.smem_latency + extra, RegSource::Alu, extra)
            }
            // One uncoalesced transaction per active lane.
            Access::Local(mask) => {
                *transactions += mask.count_ones() as u64;
                let bytes = cost::lane_bytes(cfg, mask);
                stats.global_bytes += bytes as u64;
                self.sig.local(bytes);
                (self.memory_request(bytes as u64), RegSource::Memory, 0)
            }
            // Each distinct line goes through the per-SM constant cache
            // (misses fill from DRAM through this SM's channel). The witness
            // carries the address signature only: hit or miss is the cache's
            // state, which the period detector snapshots.
            Access::Const(distinct) => {
                let (hits, misses, miss_bytes) = self.const_cache.lookup(distinct);
                stats.const_hits += hits;
                stats.const_misses += misses;
                stats.global_bytes += miss_bytes;
                self.sig.constant(distinct);
                let (ready, source) = match miss_bytes {
                    0 => (self.cycle + cfg.const_hit_latency, RegSource::Alu),
                    _ => (self.memory_request(miss_bytes), RegSource::Memory),
                };
                // Distinct addresses within the warp serialize beyond the
                // broadcast case.
                (ready, source, cost::serialized_cycles(distinct.len()))
            }
            // Each distinct line through the per-SM texture cache; a miss is a
            // transaction.
            Access::Tex(lines) => {
                let (hits, misses, miss_bytes) = self.tex_cache.lookup(lines);
                stats.tex_hits += hits;
                stats.tex_misses += misses;
                stats.global_bytes += miss_bytes;
                *transactions += misses;
                let ready = match misses {
                    0 => self.cycle + cfg.tex_hit_latency,
                    _ => self.memory_request(miss_bytes),
                };
                (ready, RegSource::Memory, 0)
            }
            // One transaction per active lane, uncoalesced in global memory;
            // the lanes serialize.
            Access::Atomic(global, mask) => {
                let lanes = mask.count_ones();
                stats.atomic_transactions += lanes as u64;
                let ready = if global {
                    let bytes = cost::lane_bytes(cfg, mask) as u64;
                    stats.global_bytes += bytes;
                    self.memory_request(bytes)
                } else {
                    self.cycle + cfg.smem_latency
                };
                let extra = cost::serialized_cycles(lanes as usize);
                (ready, RegSource::Memory, extra)
            }
        }
    }

    /// The panic the timed engine raises for an instruction [`step`]
    /// refused: a kernel bug.
    #[cold]
    fn refused(&self, r: Refusal, mop: &MicroOp, warp: &Warp, smem_words: usize) -> ! {
        let kernel = &self.p.spec.kernel.name;
        let store = matches!(mop.mem, Some(MemKind::Store(_)));
        match r {
            Refusal::Global(addr) => global_out_of_bounds(["read", "write"][store as usize], addr),
            Refusal::Shared(addr) => panic!(
                "kernel {kernel}: shared {} out of bounds ({} >= {smem_words})",
                ["load", "store"][store as usize],
                addr / 4
            ),
            Refusal::Const(addr) => const_out_of_bounds(addr),
            Refusal::DivergentBarrier => {
                let frames = warp.frames.len();
                assert_eq!(
                    frames, 1,
                    "kernel {kernel}: __syncthreads() in divergent control flow"
                );
                unreachable!("a barrier refused in a converged warp")
            }
            Refusal::ReadOnlyStore => panic!("stores to read-only memory space"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;
    use crate::launch::LaunchSpec;
    use crate::memory::DeviceMemory;
    use g80_isa::builder::KernelBuilder;
    use g80_isa::{CmpOp, Pred, Scalar};

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
            let (stats, tally, _) = run_sm(&p, &blocks, Watch::Periods);
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
    ) -> (Schedule<'q>, PeriodDetector<'static>) {
        let mut sched = Schedule::new(p, ctaids);
        sched.rebuild_order();
        let mut period = PeriodDetector::new(&sched, None);
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
        let rep = donor_rep(&p, &queue(1..5)).expect("blocks 1 to 4 are one class");
        mem.write_slice(0, [0; 9 * 32].into_iter());

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
}
