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
//!    instruction ([`Sig`]: a taken mask, coalescing verdicts and bytes, a
//!    bank-conflict degree or a constant-address signature). The stream of
//!    the first block to retire on the SM is the *representative*; every
//!    other block is verified against it, online, as it issues.
//!    The simulator's timing model reads addresses only through these
//!    signatures, so stream equality implies the blocks drive the scheduler
//!    identically from equal machine state.
//! 2. **Period fast-forward** (the period detector in [`crate::sm`]): once
//!    the SM's scheduler state recurs at a block-refill boundary, the
//!    cycle/counter delta of one period is known; remaining whole periods
//!    are applied arithmetically. The consumed blocks still need their
//!    *functional* effect: [`replay_block`] re-executes them barrier-phase
//!    by barrier-phase — no scheduler, no scoreboard, and no instruction
//!    semantics of its own: every instruction runs through [`step`], the
//!    timed engine's executor, over a [`Resident`] block like the engine's,
//!    and what it did becomes the [`Sig`] verified against the
//!    representative's event. Any mismatch or refusal aborts the period
//!    before its buffered writes commit ([`WriteBuf`]), and the launch
//!    falls back to full simulation from exactly the pre-replay state.
//!
//! **Constant loads** are the one event whose cost is not a function of the
//! block alone: whether a load hits depends on what earlier blocks left in
//! the SM's constant cache. Hit/miss is therefore *derived state*, not part
//! of the event — [`Sig`] fingerprints the addresses only, and
//! eligibility ([`crate::memo::KernelInfo::dedup_eligible`]) admits a kernel
//! only when those addresses are statically `ctaid`-free, which the stream
//! compare then re-verifies per load. Blocks sharing an SM are no longer
//! individually timing-identical (the first takes the cold misses), but the
//! cache tags are part of the period detector's snapshot, so a period is
//! found only when scheduler *and* cache state recur; and donor-SM reuse
//! stays sound because every SM starts with a cold cache, the queues are
//! equally long, and every block verified class-identical including its
//! constant addresses. Texture fetches stay excluded.

use crate::cost::{lane_bytes, HalfWarpAccess};
use crate::launch::Prepared;
use crate::memory::{DeviceMemory, Words};
use crate::sm::Resident;
use crate::step::{step, Access, Did, Scratch};
use crate::warp::Warp;
use g80_isa::Row;
use g80_isa::Value;
use std::collections::HashMap;

/// One issued warp instruction's timing-relevant fingerprint.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) struct Ev {
    pub pc: u32,
    pub mask: u32,
    pub sig: Sig,
}

const _: () = assert!(std::mem::size_of::<Ev>() == 16);

/// A block class's representative: one event stream per warp index.
pub(crate) type Rep = Vec<Vec<Ev>>;

/// The per-kind part of an [`Ev`], as [`Signature`]'s methods store it;
/// zero for register-only instructions, barriers and exits.
#[derive(Copy, Clone, Default, PartialEq, Eq, Debug)]
pub(crate) struct Sig {
    aux: u32,
    bytes: u32,
}

/// Where both executors put the signature of the instruction they execute,
/// one method per event kind: [`Sig`] keeps it, and `()` discards it, so an
/// SM run that does not record builds none.
pub(crate) trait Signature: Copy + Default {
    /// Per half-warp with an active lane, its transaction count with the
    /// coalescing verdict in bit 15 (16 bits a half); both halves' bytes.
    fn global(&mut self, halves: &[HalfWarpAccess; 2]);
    fn shared(&mut self, degree: u32);
    /// The address of a broadcast, else a hash of the distinct addresses
    /// (first-lane order), so a closed form and a scan that found one agree.
    fn constant(&mut self, distinct: &[u32]);
    fn local(&mut self, bytes: u32);
    fn branch(&mut self, taken: u32);
}

impl Signature for Sig {
    #[inline]
    fn global(&mut self, halves: &[HalfWarpAccess; 2]) {
        for (i, acc) in halves.iter().enumerate() {
            if acc.transactions > 0 {
                let half = acc.transactions.min(0x7fff) | ((acc.coalesced as u32) << 15);
                self.aux |= half << (16 * i);
                self.bytes += acc.bytes as u32;
            }
        }
    }

    #[inline]
    fn shared(&mut self, degree: u32) {
        self.aux = degree;
    }

    #[inline]
    fn constant(&mut self, distinct: &[u32]) {
        self.aux = match distinct {
            [a] => *a,
            _ => distinct.iter().fold(0x811c_9dc5u32, |h, &a| {
                (h ^ a).wrapping_mul(0x0100_0193).rotate_left(13)
            }),
        };
    }

    #[inline]
    fn local(&mut self, bytes: u32) {
        self.bytes = bytes;
    }

    #[inline]
    fn branch(&mut self, taken: u32) {
        self.aux = taken;
    }
}

impl Signature for () {
    fn global(&mut self, _: &[HalfWarpAccess; 2]) {}
    fn shared(&mut self, _: u32) {}
    fn constant(&mut self, _: &[u32]) {}
    fn local(&mut self, _: u32) {}
    fn branch(&mut self, _: u32) {}
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
    rep: Rep,
    /// Verification cursors into `rep`: `[slot][warp]`.
    cursors: Vec<Vec<usize>>,
}

impl WitnessRecorder {
    pub(crate) fn new(slots: usize, wpb: usize) -> Self {
        WitnessRecorder {
            valid: true,
            rep_done: false,
            rep: vec![Vec::new(); wpb],
            cursors: vec![vec![0; wpb]; slots],
        }
    }

    pub(crate) fn rep_done(&self) -> bool {
        self.rep_done
    }

    pub(crate) fn rep(&self) -> &[Vec<Ev>] {
        &self.rep
    }

    /// Verification position of one warp (part of the scheduler-state
    /// snapshot: the same pc at different loop iterations must not alias).
    pub(crate) fn cursor(&self, slot: usize, warp: usize) -> usize {
        self.cursors[slot][warp]
    }

    /// Records (or verifies) one issued instruction of `slot`/`warp`.
    pub(crate) fn record(&mut self, slot: usize, warp: usize, ev: Ev) {
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

    /// The representative streams, if every block retired so far was
    /// verified class-identical (the donor-SM reuse evidence).
    pub(crate) fn take_verified(self) -> Option<Rep> {
        (self.valid && self.rep_done).then_some(self.rep)
    }

    /// Called when the grid tail permanently removes `slot` (after its final
    /// [`Self::on_retire`]): drops the slot's verification state so the
    /// remaining slot indices realign, keeping the recorder valid — every
    /// block retired so far has still been individually verified.
    pub(crate) fn on_remove(&mut self, slot: usize) {
        self.cursors.remove(slot);
    }

    /// Called when the block in `slot` retires, before the slot refills: a
    /// verified block has consumed its whole class stream, and the first one
    /// to do so completes it. Returns whether this retire froze the streams.
    pub(crate) fn on_retire(&mut self, slot: usize) -> bool {
        if !self.valid {
            return false;
        }
        for (cur, rep) in self.cursors[slot].iter_mut().zip(&self.rep) {
            if *cur != rep.len() {
                self.valid = false;
                return false;
            }
            *cur = 0;
        }
        !std::mem::replace(&mut self.rep_done, true)
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
    pub(crate) fn new(mem: &'m DeviceMemory) -> Self {
        WriteBuf {
            mem,
            log: Vec::new(),
            map: HashMap::new(),
            mapped: 0,
            lo: u32::MAX,
            hi: 0,
        }
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

    pub(crate) fn commit(self) {
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
    /// The rows [`step`] expands operands into.
    tmp: [Row; 3],
    /// Warp instructions executed by every [`replay_block`] so far.
    pub replayed: u64,
}

impl ReplayScratch {
    pub(crate) fn new(p: &Prepared) -> Self {
        let block = Resident::new(p.spec.kernel, &p.spec.dims, (0, 0));
        let cursors = vec![0; block.warps.len()];
        ReplayScratch {
            block,
            cursors,
            tmp: [[Value::ZERO; 32]; 3],
            replayed: 0,
        }
    }
}

/// Functionally re-executes one block against the representative streams.
///
/// Runs each warp to its next barrier (or exit), releases the barrier when
/// every live warp is parked, and repeats — the ordering CUDA's consistency
/// rules guarantee is equivalent to any legal schedule. Every instruction
/// is checked against the representative's event at the warp's cursor;
/// `false` means the block is not class-identical and nothing may commit.
pub(crate) fn replay_block(
    p: &Prepared,
    ctaid: (u32, u32),
    rep: &[Vec<Ev>],
    buf: &mut WriteBuf,
    scratch: &mut ReplayScratch,
) -> bool {
    if rep.len() != scratch.block.warps.len() {
        return false;
    }
    let verified = replay_warps(p, ctaid, rep, buf, scratch);
    // Each executed instruction moved its warp's cursor on by one.
    scratch.replayed += scratch.cursors.iter().sum::<usize>() as u64;
    verified
}

/// [`replay_block`]'s barrier-phase loop.
#[inline(always)]
fn replay_warps(
    p: &Prepared,
    ctaid: (u32, u32),
    rep: &[Vec<Ev>],
    buf: &mut WriteBuf,
    scratch: &mut ReplayScratch,
) -> bool {
    let ReplayScratch {
        block,
        cursors,
        tmp,
        ..
    } = scratch;
    block.reset(ctaid);
    cursors.fill(0);

    loop {
        let smem = &mut block.smem;
        for (wi, warp) in block.warps.iter_mut().enumerate() {
            while warp.settle() && !warp.at_barrier {
                if !replay_step(p, smem, warp, &rep[wi], &mut cursors[wi], buf, tmp) {
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

/// Executes one instruction of `warp` through [`step`] and verifies it
/// against `rep[*cursor]`: the same pc and mask before, the same signature
/// after. A refusal — an address outside memory, a divergent barrier —
/// fails the replay; the timed fallback reports it. Eligibility keeps out
/// atomics and texture fetches, which this copy of `step` cannot run.
///
/// With [`crate::KernelInfo::shared_uniform`] (shared addresses statically
/// `ctaid`-free, see [`g80_isa::TaintSummary::ctaid_shared_addr`])
/// the bank-conflict degree of a shared access is known to equal the
/// representative's without recomputing it — the dominant cost of replaying
/// tiled kernels.
///
/// ≈ 17 ns a call on a 256² tiled, unrolled matmul: CPU time per replayed
/// warp instruction, the timed engine's 32 ns per issued one taken off
/// (two pool workers on a 2-core x86-64 host). Inlined with [`step`] for
/// the reason `step` gives; `tmp` is the replaying SM's operand rows.
#[inline(always)]
fn replay_step(
    p: &Prepared,
    smem: &mut [Value],
    warp: &mut Warp,
    rep: &[Ev],
    cursor: &mut usize,
    buf: &mut WriteBuf,
    tmp: &mut [Row; 3],
) -> bool {
    let cfg = p.cfg;
    let (pc, mask) = (warp.pc(), warp.active_mask());
    let Some(&expect) = rep.get(*cursor).filter(|e| (e.pc, e.mask) == (pc, mask)) else {
        return false;
    };
    let (inst, mut scratch) = (p.info.decoded.ops[pc as usize].inst, Scratch::default());
    let Ok(did) = step::<true, _>(p, inst, warp, smem, buf, &mut scratch, tmp) else {
        return false;
    };
    let mut sig = Sig::default();
    match did {
        Did::Load(access) | Did::Store(access) => match access {
            Access::Global(addrs) => sig.global(&addrs.coalesce(cfg)),
            Access::Shared(_) if p.info.shared_uniform => sig = expect.sig,
            Access::Shared(addrs) => sig.shared(addrs.smem_degree(cfg)),
            Access::Local(mask) => sig.local(lane_bytes(cfg, mask)),
            Access::Const(distinct) => sig.constant(distinct),
            Access::Tex(_) | Access::Atomic(..) => unreachable!("not executed in replay"),
        },
        Did::Branch(taken, _) => sig.branch(taken),
        Did::Reg | Did::Barrier | Did::Exit => {}
    }
    *cursor += 1;
    sig == expect.sig
}

/// Functionally replays a whole SM's block queue against a *donor* SM's
/// frozen representative streams (donor-SM timing reuse, see
/// [`crate::sm::run_sm`]). All writes are buffered, and none commits here:
/// the buffer comes back if every block verifies class-identical, for the
/// caller to commit once the donor has verified too. Also returns the warp
/// instructions replayed, whatever the verdict.
pub(crate) fn replay_sm<'m>(
    p: &Prepared<'m>,
    my_blocks: &[(u32, u32)],
    rep: &[Vec<Ev>],
) -> (Option<WriteBuf<'m>>, u64) {
    let mut buf = WriteBuf::new(p.spec.mem);
    let mut scratch = ReplayScratch::new(p);
    let ok = my_blocks
        .iter()
        .all(|&ctaid| replay_block(p, ctaid, rep, &mut buf, &mut scratch));
    (ok.then_some(buf), scratch.replayed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;

    fn ev(pc: u32) -> Ev {
        Ev {
            pc,
            mask: u32::MAX,
            sig: Sig::default(),
        }
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
        use crate::sm::LaunchDims;
        use g80_isa::builder::KernelBuilder;
        use g80_isa::Kernel;
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
        let cfg = GpuConfig::geforce_8800_gtx();
        let mut mem = DeviceMemory::new(8 * 32 * 4);
        mem.const_bank = (0..8).collect();
        fn launch<'a>(
            cfg: &'a GpuConfig,
            kernel: &'a Kernel,
            mem: &'a DeviceMemory,
        ) -> Prepared<'a> {
            let spec = crate::LaunchSpec {
                kernel,
                dims: LaunchDims {
                    grid: (8, 1),
                    block: (32, 1, 1),
                },
                params: &[Value::ZERO],
                mem,
            };
            Prepared::for_test(cfg, spec, 2, true)
        }

        let donor: Vec<(u32, u32)> = (0..4).map(|x| (x, 0)).collect();
        let rep = crate::sm::donor_rep(&launch(&cfg, &kernel, &mem), &donor)
            .expect("four identical blocks verify");
        let others: Vec<(u32, u32)> = (4..8).map(|x| (x, 0)).collect();
        // Each block runs its warp's whole stream, up to the faulting load.
        let replay = |mem: &DeviceMemory| {
            let (buf, replayed) = replay_sm(&launch(&cfg, &kernel, mem), &others, &rep);
            (buf.map(WriteBuf::commit).is_some(), replayed)
        };

        mem.const_bank.truncate(7); // word 7 is now out of the bank
        let load_at = rep[0].iter().position(|e| e.sig != Sig::default());
        assert_eq!(replay(&mem), (false, load_at.unwrap() as u64));
        assert_eq!(mem.read(4 * 32 * 4).as_u32(), 0, "failed replay committed");
        mem.const_bank.push(7);
        assert_eq!(replay(&mem), (true, 4 * rep[0].len() as u64));
        assert_eq!(mem.read(4 * 32 * 4).as_u32(), 7);
    }

    /// The signature is a function of the distinct-address list alone.
    #[test]
    fn const_sig_is_the_address_for_a_broadcast() {
        let const_sig = |distinct: &[u32]| {
            let mut sig = Sig::default();
            sig.constant(distinct);
            sig
        };
        assert_eq!(const_sig(&[0x1234]).aux, 0x1234);
        assert_ne!(const_sig(&[0, 4]), const_sig(&[4, 0]));
        assert_ne!(const_sig(&[0, 4]), const_sig(&[0, 8]));
        assert_ne!(const_sig(&[0, 4]), const_sig(&[0, 4, 8]));
    }
}
