//! Block-class deduplication: determinism witnesses and the functional
//! replay executor.
//!
//! The paper's workloads launch grids of *identical* blocks: every block of
//! a tiled matmul runs the same instruction path with the same coalescing
//! and bank-conflict behaviour, differing only in which tile it touches.
//! Simulating each one through the full scheduler re-derives timing the SM
//! has already computed. The dedup layer removes that redundancy while
//! keeping the aggregate [`crate::KernelStats`] bit-identical:
//!
//! 1. **Witness streams** ([`Ev`], [`WitnessRecorder`]): while a dedup-
//!    eligible launch runs, every issued warp instruction appends a compact
//!    event — `(pc, active mask)` plus the timing-relevant signature of the
//!    instruction (taken mask for branches, per-half-warp coalescing verdict
//!    and byte count for global accesses, bank-conflict degree for shared
//!    accesses, the address signature for constant loads). The stream of
//!    the first block to retire on the SM is the *representative*; every
//!    other block is verified against it, online, as it issues.
//!    The simulator's timing model reads addresses only through these
//!    signatures, so stream equality implies the blocks drive the scheduler
//!    identically from equal machine state.
//! 2. **Period fast-forward** (in [`crate::sm::run_sm`]): once the SM's
//!    scheduler state recurs at a block-refill boundary, the cycle/counter
//!    delta of one period is known; remaining whole periods are applied
//!    arithmetically. The consumed blocks still need their *functional*
//!    effect: [`replay_block`] re-executes them barrier-phase by
//!    barrier-phase — no scheduler, no scoreboard, and no instruction
//!    semantics of its own: [`step`] drives the definitions the timed engine
//!    issues through ([`Warp::exec_reg_only`], [`LaneAddrs`], [`load_const`],
//!    [`Resident`]) — while verifying every event against the
//!    representative. Any mismatch aborts the period
//!    before its buffered writes commit ([`WriteBuf`]), and the launch
//!    falls back to full simulation from exactly the pre-replay state.
//!
//! **Constant loads** are the one event whose cost is not a function of the
//! block alone: whether a load hits depends on what earlier blocks left in
//! the SM's constant cache. Hit/miss is therefore *derived state*, not part
//! of the event — [`const_sig`] fingerprints the addresses only, and
//! eligibility ([`crate::memo::KernelInfo::dedup_eligible`]) admits a kernel
//! only when those addresses are statically `ctaid`-free, which the stream
//! compare then re-verifies per load. Blocks sharing an SM are no longer
//! individually timing-identical (the first takes the cold misses), but the
//! cache tags are part of the period detector's snapshot, so a period is
//! found only when scheduler *and* cache state recur; and donor-SM reuse
//! stays sound because every SM starts with a cold cache, the queues are
//! equally long, and every block verified class-identical including its
//! constant addresses. Texture fetches stay excluded.

use crate::config::GpuConfig;
use crate::memory::{DeviceMemory, HalfWarpAccess, Words};
use crate::sm::{addr_row, load_const, LaneAddrs, LaunchDims, Resident};
use crate::warp::Warp;
use g80_isa::decode::DecodedKernel;
use g80_isa::inst::{Inst, Space};
use g80_isa::{Kernel, Value};
use std::collections::HashMap;

/// One issued warp instruction's timing-relevant fingerprint.
///
/// `a` packs `(pc << 32) | active_mask`; `b` packs `(aux << 32) | bytes`
/// where `aux` is the per-kind signature: taken mask for branches, the two
/// half-warp coalescing verdicts for global accesses ([`half_sig`]), the
/// bank-conflict degree for shared accesses, the address signature for
/// constant loads ([`const_sig`], with `bytes` = 0), zero otherwise.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Ev {
    pub a: u64,
    pub b: u64,
}

impl Ev {
    #[inline]
    pub fn new(pc: u32, mask: u32, aux: u32, bytes: u32) -> Ev {
        Ev {
            a: ((pc as u64) << 32) | mask as u64,
            b: ((aux as u64) << 32) | bytes as u64,
        }
    }
}

/// 16-bit signature of one half-warp global access: transaction count with
/// the coalescing verdict in the top bit.
#[inline]
pub(crate) fn half_sig(acc: &HalfWarpAccess) -> u32 {
    acc.transactions.min(0x7fff) | ((acc.coalesced as u32) << 15)
}

/// Witness signature of one warp global access: the two [`half_sig`]
/// verdicts packed as `aux` (a half-warp with no active lane contributes
/// nothing), and the byte count.
#[inline]
pub(crate) fn global_sig(halves: &[HalfWarpAccess; 2]) -> (u32, u32) {
    let (mut aux, mut bytes) = (0u32, 0u64);
    for (i, acc) in halves.iter().enumerate() {
        if acc.transactions > 0 {
            aux |= half_sig(acc) << (16 * i);
            bytes += acc.bytes;
        }
    }
    (aux, bytes as u32)
}

/// Witness byte count of one warp local (spill) access: one uncoalesced
/// transaction per active lane.
#[inline]
pub(crate) fn local_bytes(cfg: &GpuConfig, mask: u32) -> u32 {
    mask.count_ones() * cfg.uncoalesced_txn_bytes
}

/// 32-bit signature of one warp constant load over its distinct addresses
/// (first-lane order): the address itself for a broadcast, a hash of the
/// list otherwise. Both executors derive it from the same list whichever
/// path produced it, so a closed-form broadcast and a per-lane scan that
/// found one address agree.
#[inline]
pub(crate) fn const_sig(distinct: &[u32]) -> u32 {
    match distinct {
        [a] => *a,
        _ => distinct.iter().fold(0x811c_9dc5u32, |h, &a| {
            (h ^ a).wrapping_mul(0x0100_0193).rotate_left(13)
        }),
    }
}

/// Per-SM witness state: the representative event streams plus the online
/// verification cursor of every resident slot.
///
/// Lifecycle: the first resident cohort *builds* the representative
/// together — a warp's event either matches the stream at its slot's cursor
/// or, when that slot is the furthest along, extends it — so all slots share
/// one stream per warp index instead of buffering one each. The first block
/// to retire, whichever slot it is (with a shared constant cache the block
/// that rides its neighbour's misses finishes first), must have consumed the
/// whole stream; that freezes it, and from then on verification is the
/// compare alone. Any mismatch — different path, different coalescing class,
/// different constant address, a stream that ends early or runs long —
/// permanently invalidates the recorder; the simulation itself is never
/// perturbed, so invalidation *is* the automatic fallback.
pub(crate) struct WitnessRecorder {
    pub valid: bool,
    /// The streams are complete: some block retired having consumed them.
    rep_done: bool,
    /// Representative streams, one per warp index.
    rep: Vec<Vec<Ev>>,
    /// Verification cursors into `rep`: `[slot][warp]`.
    cursors: Vec<Vec<usize>>,
}

impl WitnessRecorder {
    pub fn new(slots: usize, wpb: usize) -> Self {
        WitnessRecorder {
            valid: true,
            rep_done: false,
            rep: vec![Vec::new(); wpb],
            cursors: vec![vec![0; wpb]; slots],
        }
    }

    pub fn rep_done(&self) -> bool {
        self.rep_done
    }

    pub fn rep(&self) -> &[Vec<Ev>] {
        &self.rep
    }

    /// Verification position of one warp (part of the scheduler-state
    /// snapshot: the same pc at different loop iterations must not alias).
    pub fn cursor(&self, slot: usize, warp: usize) -> usize {
        self.cursors[slot][warp]
    }

    /// Records (or verifies) one issued instruction of `slot`/`warp`.
    pub fn record(&mut self, slot: usize, warp: usize, ev: Ev) {
        if !self.valid {
            return;
        }
        let cur = self.cursors[slot][warp];
        let rep = &mut self.rep[warp];
        if cur == rep.len() && !self.rep_done {
            rep.push(ev);
        } else if rep.get(cur) != Some(&ev) {
            self.valid = false;
            return;
        }
        self.cursors[slot][warp] = cur + 1;
    }

    /// Consumes the representative streams if every block retired so far was
    /// verified class-identical (the donor-SM reuse evidence). Invalidates
    /// the recorder, so call only when the SM is done.
    pub fn take_verified(&mut self) -> Option<Vec<Vec<Ev>>> {
        if self.valid && self.rep_done {
            self.valid = false;
            Some(std::mem::take(&mut self.rep))
        } else {
            None
        }
    }

    /// Called when the grid tail permanently removes `slot` (after its final
    /// [`Self::on_retire`]): drops the slot's verification state so the
    /// remaining slot indices realign, keeping the recorder valid — every
    /// block retired so far has still been individually verified.
    pub fn on_remove(&mut self, slot: usize) {
        if slot < self.cursors.len() {
            self.cursors.remove(slot);
        }
    }

    /// Called when the block in `slot` retires, before the slot refills: a
    /// verified block has consumed its whole class stream, and the first one
    /// to do so completes it.
    pub fn on_retire(&mut self, slot: usize) {
        if !self.valid {
            return;
        }
        for (cur, rep) in self.cursors[slot].iter_mut().zip(&self.rep) {
            if *cur != rep.len() {
                self.valid = false;
                return;
            }
            *cur = 0;
        }
        self.rep_done = true;
    }
}

/// Buffered global-memory writes of one fast-forwarded period, over the
/// device memory they commit to.
///
/// Replayed blocks write here instead of into [`DeviceMemory`]; reads check
/// the buffer first (read-your-own-writes). Only a fully verified period
/// commits — a failed replay drops the buffer, leaving memory untouched for
/// the full-simulation fallback. A write is range-checked as it is buffered,
/// so a replayed access outside memory fails the replay (the timed fallback
/// then reports it) and a commit cannot.
pub(crate) struct WriteBuf<'m> {
    mem: &'m DeviceMemory,
    /// Every buffered `(word, value)`, in program order.
    log: Vec<(u32, Value)>,
    /// Word → value of `log[..mapped]`, the last write winning. Built by the
    /// first read that lands inside `[lo, hi]` and brought up to date by
    /// each such read after it: a kernel that never reads back what it wrote
    /// never hashes.
    map: HashMap<u32, Value>,
    mapped: usize,
    /// Inclusive word-index range covered by the writes so far. Loads from
    /// input regions (disjoint from the output in every well-formed kernel)
    /// skip the map entirely — the common case by far.
    lo: u32,
    hi: u32,
}

impl<'m> WriteBuf<'m> {
    pub fn new(mem: &'m DeviceMemory) -> Self {
        WriteBuf {
            mem,
            log: Vec::new(),
            map: HashMap::new(),
            mapped: 0,
            lo: u32::MAX,
            hi: 0,
        }
    }

    /// The device memory under the buffer.
    pub fn mem(&self) -> &'m DeviceMemory {
        self.mem
    }

    /// Widens the written range to cover words `lo..=hi`.
    #[inline]
    fn cover(&mut self, lo: u32, hi: u32) {
        self.lo = self.lo.min(lo);
        self.hi = self.hi.max(hi);
    }

    /// The slow path of [`Words::read_word`]: the address lies inside the
    /// written range, so the write map — caught up with the log first —
    /// decides. Out of line to keep the load loops small.
    #[cold]
    #[inline(never)]
    fn read_buffered(&mut self, addr: u32) -> Option<Value> {
        for &(w, v) in &self.log[self.mapped..] {
            self.map.insert(w, v);
        }
        self.mapped = self.log.len();
        match self.map.get(&(addr / 4)) {
            Some(&v) => Some(v),
            None => self.mem.try_read(addr),
        }
    }

    pub fn commit(self) {
        for (w, v) in self.log {
            self.mem.write(4 * w, v);
        }
    }
}

impl Words for WriteBuf<'_> {
    #[inline]
    fn read_word(&mut self, addr: u32) -> Option<Value> {
        let w = addr / 4;
        if w < self.lo || w > self.hi {
            return self.mem.try_read(addr);
        }
        self.read_buffered(addr)
    }

    #[inline]
    fn write_word(&mut self, addr: u32, v: Value) -> bool {
        let w = addr / 4;
        if !self.mem.holds(w, 1) {
            return false;
        }
        self.cover(w, w);
        self.log.push((w, v));
        true
    }

    /// Declines a run that reaches into the written range: its lanes then
    /// read through the map one at a time.
    #[inline]
    fn read_run(&mut self, word: u32, dst: &mut [Value]) -> bool {
        let last = word + (dst.len() as u32 - 1);
        (last < self.lo || word > self.hi) && self.mem.read_run(word, dst)
    }

    #[inline]
    fn write_run(&mut self, word: u32, src: &[Value]) -> bool {
        if !self.mem.holds(word, src.len()) {
            return false;
        }
        self.cover(word, word + (src.len() as u32 - 1));
        self.log.extend((word..).zip(src.iter().copied()));
        true
    }
}

/// Reusable state of the replay executor: one block's storage, as the timed
/// engine's resident slots hold it, plus a witness cursor per warp. Every
/// block of a launch has the same geometry, so a replaying SM allocates this
/// once and [`replay_block`] recycles it per block, the way the timed engine
/// refills a slot in place.
pub(crate) struct ReplayScratch {
    block: Resident,
    cursors: Vec<usize>,
}

impl ReplayScratch {
    pub fn new(kernel: &Kernel, dims: &LaunchDims) -> Self {
        let block = Resident::new(kernel, dims, (0, 0));
        let cursors = vec![0; block.warps.len()];
        ReplayScratch { block, cursors }
    }
}

/// Functionally re-executes one block against the representative streams.
///
/// Runs each warp to its next barrier (or exit), releases the barrier when
/// every live warp is parked, and repeats — the ordering CUDA's consistency
/// rules guarantee is equivalent to any legal schedule. Every instruction
/// is checked against the representative's event at the warp's cursor;
/// `false` means the block is not class-identical and nothing may commit.
#[allow(clippy::too_many_arguments)]
pub(crate) fn replay_block(
    cfg: &GpuConfig,
    decoded: &DecodedKernel,
    params: &[Value],
    ctaid: (u32, u32),
    rep: &[Vec<Ev>],
    buf: &mut WriteBuf,
    shared_uniform: bool,
    scratch: &mut ReplayScratch,
) -> bool {
    let ReplayScratch { block, cursors } = scratch;
    if rep.len() != block.warps.len() {
        return false;
    }
    block.reset(ctaid);
    cursors.fill(0);

    loop {
        let smem = &mut block.smem;
        for (wi, warp) in block.warps.iter_mut().enumerate() {
            while warp.settle() && !warp.at_barrier {
                if !step(
                    cfg,
                    decoded,
                    params,
                    smem,
                    warp,
                    &rep[wi],
                    &mut cursors[wi],
                    buf,
                    shared_uniform,
                ) {
                    return false;
                }
            }
        }
        if block.all_done() {
            break;
        }
        // No scheduler here, so nothing reads the release cycle.
        if !block.release_barrier(0) {
            return false; // defensive: no progress possible
        }
    }
    cursors.iter().zip(rep).all(|(&c, r)| c == r.len())
}

/// Executes one instruction of `warp`, verifying it against `rep[*cursor]`.
///
/// With `shared_uniform` (shared addresses statically `ctaid`-free, see
/// [`g80_isa::dataflow::TaintSummary::ctaid_shared_addr`]) the bank-conflict
/// degree of a shared access is known to equal the representative's without
/// recomputing it — the dominant cost of replaying tiled kernels.
///
/// One caller, 23–36 ns a call on the Section 4 walk at n = 256 (two pool
/// workers on a 2-core x86-64 host): kept inline so the nine arguments
/// never go through the stack (out of line it cost `matmul_walk` ≈ 20 %).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn step(
    cfg: &GpuConfig,
    decoded: &DecodedKernel,
    params: &[Value],
    smem: &mut [Value],
    warp: &mut Warp,
    rep: &[Ev],
    cursor: &mut usize,
    buf: &mut WriteBuf,
    shared_uniform: bool,
) -> bool {
    let pc = warp.pc() as usize;
    let inst = decoded.ops[pc].inst;
    let mask = warp.active_mask();
    let expect = match rep.get(*cursor) {
        Some(&e) => e,
        None => return false,
    };
    if expect.a != (((pc as u64) << 32) | mask as u64) {
        return false;
    }
    // What a register-only instruction does is `Warp::exec_reg_only`; its
    // signature is zero.
    if warp.exec_reg_only(&inst, mask, params) {
        *cursor += 1;
        return expect.b == 0;
    }
    let mut aux = 0u32;
    let mut bytes = 0u32;
    // Cleared when the signature is statically proven equal to the
    // representative's instead of being recomputed (`shared_uniform`).
    let mut verify_b = true;
    match inst {
        Inst::Ld {
            space,
            dst,
            addr,
            off,
        } => match space {
            // An address outside memory fails the replay, as for constants.
            Space::Global => {
                let addrs = LaneAddrs::of(warp, mask, addr, off, params);
                (aux, bytes) = global_sig(&addrs.coalesce(cfg));
                if addrs.load(buf, warp.reg_row_mut(dst.0)).is_err() {
                    return false;
                }
                warp.advance();
            }
            Space::Shared => {
                let addrs = LaneAddrs::of(warp, mask, addr, off, params);
                if shared_uniform {
                    verify_b = false;
                } else {
                    aux = addrs.smem_degree(cfg);
                }
                if addrs.load(smem, warp.reg_row_mut(dst.0)).is_err() {
                    return false;
                }
                warp.advance();
            }
            Space::Local => {
                let addrs = addr_row(warp, addr, off, params);
                warp.load_local(mask, dst.0, &addrs);
                bytes = local_bytes(cfg, mask);
                warp.advance();
            }
            // Address signature only — hit/miss is the SM cache's state,
            // owned by the timed engine (module docs). An address outside
            // the constant bank fails the replay; the timed fallback then
            // reports it the way it always has.
            Space::Const => {
                let mut distinct = [0u32; 32];
                let mem = buf.mem();
                let Ok(n) = load_const(warp, dst.0, addr, off, params, mem, &mut distinct) else {
                    return false;
                };
                aux = const_sig(&distinct[..n]);
                warp.advance();
            }
            // Eligibility excludes texture fetches (the texture cache's
            // state is not part of the recurring-state snapshot); reaching
            // here means the class is not replayable.
            Space::Tex => return false,
        },
        Inst::St {
            space,
            addr,
            off,
            src,
        } => match space {
            Space::Global => {
                let addrs = LaneAddrs::of(warp, mask, addr, off, params);
                (aux, bytes) = global_sig(&addrs.coalesce(cfg));
                if addrs.store(buf, &warp.operand_row(src, params)).is_err() {
                    return false;
                }
                warp.advance();
            }
            Space::Shared => {
                let addrs = LaneAddrs::of(warp, mask, addr, off, params);
                if shared_uniform {
                    verify_b = false;
                } else {
                    aux = addrs.smem_degree(cfg);
                }
                if addrs.store(smem, &warp.operand_row(src, params)).is_err() {
                    return false;
                }
                warp.advance();
            }
            Space::Local => {
                let addrs = addr_row(warp, addr, off, params);
                let srcs = warp.operand_row(src, params);
                warp.store_local(mask, &addrs, &srcs);
                bytes = local_bytes(cfg, mask);
                warp.advance();
            }
            Space::Const | Space::Tex => return false,
        },
        // Atomics are excluded by eligibility (inter-block coupling).
        Inst::Atom { .. } => return false,
        Inst::Bra {
            target,
            reconv,
            pred,
        } => {
            let next_pc = pc as u32 + 1;
            let taken = match pred {
                None => mask,
                Some(p) => warp.taken_mask(p.reg.0, p.negate, mask),
            };
            aux = taken;
            warp.take_branch(taken, target.0, reconv.0, next_pc);
        }
        Inst::Bar => {
            if warp.frames.len() != 1 {
                return false;
            }
            warp.advance();
            warp.at_barrier = true;
        }
        Inst::Exit => {
            warp.exit_lanes(mask);
        }
        _ => unreachable!("register-only instructions handled above"),
    }
    if verify_b && expect.b != (((aux as u64) << 32) | bytes as u64) {
        return false;
    }
    *cursor += 1;
    true
}

/// Functionally replays a whole SM's block queue against a *donor* SM's
/// verified representative streams (donor-SM timing reuse, see
/// [`crate::sm::run_sm`]). All writes are buffered; only if every block
/// verifies class-identical do they commit. Returns `false` with memory
/// untouched otherwise, so the caller can fall back to full simulation.
#[allow(clippy::too_many_arguments)]
pub(crate) fn replay_sm(
    cfg: &GpuConfig,
    kernel: &Kernel,
    decoded: &DecodedKernel,
    dims: &LaunchDims,
    params: &[Value],
    mem: &DeviceMemory,
    my_blocks: &[(u32, u32)],
    rep: &[Vec<Ev>],
    shared_uniform: bool,
) -> bool {
    let mut buf = WriteBuf::new(mem);
    let mut scratch = ReplayScratch::new(kernel, dims);
    for &ctaid in my_blocks {
        if !replay_block(
            cfg,
            decoded,
            params,
            ctaid,
            rep,
            &mut buf,
            shared_uniform,
            &mut scratch,
        ) {
            return false;
        }
    }
    buf.commit();
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(pc: u32) -> Ev {
        Ev::new(pc, u32::MAX, 0, 0)
    }

    /// Feeds `pcs` as slot `slot`'s single warp stream.
    fn issue(rec: &mut WitnessRecorder, slot: usize, pcs: std::ops::Range<u32>) {
        for pc in pcs {
            rec.record(slot, 0, ev(pc));
        }
    }

    /// With a shared constant cache the block in slot 1 rides slot 0's
    /// misses and finishes first: its retire freezes the representative, and
    /// slot 0 (a clean prefix so far) keeps verifying against it.
    #[test]
    fn first_retiring_slot_completes_the_representative() {
        let mut rec = WitnessRecorder::new(2, 1);
        issue(&mut rec, 0, 0..3);
        issue(&mut rec, 1, 0..5);
        assert!(rec.valid && !rec.rep_done());
        rec.on_retire(1);
        assert!(rec.valid && rec.rep_done());
        assert_eq!(rec.rep()[0].len(), 5);
        assert_eq!((rec.cursor(0, 0), rec.cursor(1, 0)), (3, 0));

        // Slot 0 finishes its block; slot 1's refill verifies from the top.
        issue(&mut rec, 0, 3..5);
        issue(&mut rec, 1, 0..2);
        rec.on_retire(0);
        assert!(rec.valid);
        assert_eq!((rec.cursor(0, 0), rec.cursor(1, 0)), (0, 2));
        assert_eq!(rec.take_verified().map(|r| r[0].len()), Some(5));
    }

    /// A sibling that leaves the shared stream (a different pc at position
    /// 2), runs past its frozen end, or retires short of it is a different
    /// block class.
    #[test]
    fn sibling_diverging_from_representative_invalidates() {
        let mut rec = WitnessRecorder::new(2, 1);
        issue(&mut rec, 1, 0..5);
        issue(&mut rec, 0, 0..2);
        rec.record(0, 0, ev(9));
        assert!(!rec.valid);
        rec.on_retire(1);
        assert!(rec.take_verified().is_none());

        // Slot 0 is ahead when slot 1 retires: slot 1 stopped short.
        let mut rec = WitnessRecorder::new(2, 1);
        issue(&mut rec, 0, 0..6);
        issue(&mut rec, 1, 0..5);
        rec.on_retire(1);
        assert!(!rec.valid);

        // Slot 0 runs past the frozen stream.
        let mut rec = WitnessRecorder::new(2, 1);
        issue(&mut rec, 0, 0..3);
        issue(&mut rec, 1, 0..5);
        rec.on_retire(1);
        issue(&mut rec, 0, 3..6);
        assert!(!rec.valid);
    }

    /// Two blocks finishing in the same retire scan: the first freezes the
    /// representative, the second must already have consumed all of it.
    #[test]
    fn two_slots_retiring_in_one_scan() {
        let mut rec = WitnessRecorder::new(3, 1);
        for slot in 0..3 {
            issue(&mut rec, slot, 0..if slot == 2 { 1 } else { 4 });
        }
        rec.on_retire(0);
        rec.on_retire(1);
        assert!(rec.valid);
        assert_eq!(
            (rec.cursor(0, 0), rec.cursor(1, 0), rec.cursor(2, 0)),
            (0, 0, 1)
        );

        // ... and one that stopped short of it is not class-identical.
        let mut rec = WitnessRecorder::new(2, 1);
        issue(&mut rec, 0, 0..4);
        issue(&mut rec, 1, 0..3);
        rec.on_retire(0);
        assert!(rec.valid);
        rec.on_retire(1);
        assert!(!rec.valid);
    }

    /// Replay never unwinds: a constant address outside the bank fails the
    /// replay with nothing committed, leaving the report to the timed engine.
    #[test]
    fn out_of_bank_constant_address_fails_replay_uncommitted() {
        use g80_isa::builder::KernelBuilder;
        let mut b = KernelBuilder::new("const_tail");
        let ys = b.param();
        let tid = b.tid_x();
        let ntid = b.ntid_x();
        let cta = b.ctaid_x();
        let i = b.imad(cta, ntid, tid);
        let byte = b.shl(i, 2u32);
        let ya = b.iadd(byte, ys);
        let c = b.ld_const(4u32 * 7, 0);
        b.st_global(ya, 0, c);
        let kernel = b.build();
        let decoded = DecodedKernel::new(&kernel);
        let cfg = GpuConfig::geforce_8800_gtx();
        let dims = LaunchDims {
            grid: (8, 1),
            block: (32, 1, 1),
        };
        let params = [Value::from_u32(0)];
        let mut mem = DeviceMemory::new(8 * 32 * 4);
        mem.const_bank = (0..8).collect();

        let mut rep = None;
        let donor: Vec<(u32, u32)> = (0..4).map(|x| (x, 0)).collect();
        crate::sm::run_sm(
            &cfg,
            &kernel,
            &decoded,
            &dims,
            &params,
            &mem,
            &donor,
            2,
            true,
            true,
            u64::MAX,
            &mut Default::default(),
            Some(&mut rep),
        );
        let rep = rep.expect("four identical blocks verify");
        let others: Vec<(u32, u32)> = (4..8).map(|x| (x, 0)).collect();
        let replay = |mem: &DeviceMemory| {
            replay_sm(
                &cfg, &kernel, &decoded, &dims, &params, mem, &others, &rep, true,
            )
        };

        mem.const_bank.truncate(7); // word 7 is now out of the bank
        assert!(!replay(&mem));
        assert_eq!(mem.read(4 * 32 * 4).as_u32(), 0, "failed replay committed");
        mem.const_bank.push(7);
        assert!(replay(&mem));
        assert_eq!(mem.read(4 * 32 * 4).as_u32(), 7);
    }

    /// The signature is a function of the distinct-address list alone.
    #[test]
    fn const_sig_is_the_address_for_a_broadcast() {
        assert_eq!(const_sig(&[0x1234]), 0x1234);
        assert_ne!(const_sig(&[0, 4]), const_sig(&[4, 0]));
        assert_ne!(const_sig(&[0, 4]), const_sig(&[0, 8]));
        assert_ne!(const_sig(&[0, 4]), const_sig(&[0, 4, 8]));
    }
}
