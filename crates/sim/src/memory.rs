//! Device memory and the access-pattern machinery: global-memory coalescing,
//! shared-memory bank conflicts, and the constant/texture caches.
//!
//! Global memory is stored as `AtomicU32` words so the 16 SM simulation
//! threads can execute concurrently in safe Rust; kernels that follow the
//! CUDA consistency rules (no data races between blocks except via atomics)
//! observe exactly the values they would on hardware. All accesses are
//! 4-byte words at byte addresses.

use crate::config::GpuConfig;
use crate::memo::{wide_digest, Mix128};
use g80_isa::row::{for_each_affine_lane, AffineTerms};
use g80_isa::Value;
use std::hash::Hasher;
use std::sync::atomic::{AtomicU32, Ordering};

/// Device global memory plus the read-only constant bank and an optional
/// texture binding.
pub struct DeviceMemory {
    words: Vec<AtomicU32>,
    /// Constant bank contents (read-only during kernels).
    pub const_bank: Vec<u32>,
    /// Texture binding: (base byte address, length in bytes) into global
    /// memory. Texture fetches address this window.
    pub tex_binding: Option<(u32, u32)>,
}

impl DeviceMemory {
    /// Creates a device memory of `bytes` bytes (rounded up to a word).
    pub fn new(bytes: u32) -> Self {
        let words = (bytes as usize).div_ceil(4);
        let mut v = Vec::with_capacity(words);
        v.resize_with(words, || AtomicU32::new(0));
        DeviceMemory {
            words: v,
            const_bank: Vec::new(),
            tex_binding: None,
        }
    }

    /// Size in bytes.
    pub fn len_bytes(&self) -> u32 {
        (self.words.len() * 4) as u32
    }

    /// Reads the word at a byte address.
    #[inline]
    pub fn read(&self, addr: u32) -> Value {
        self.try_read(addr)
            .unwrap_or_else(|| global_out_of_bounds("read", addr))
    }

    /// Writes the word at a byte address.
    #[inline]
    pub fn write(&self, addr: u32, v: Value) {
        if !self.try_write(addr, v) {
            global_out_of_bounds("write", addr)
        }
    }

    /// [`Self::read`] for callers that report the address themselves:
    /// `None` outside memory.
    #[inline]
    pub(crate) fn try_read(&self, addr: u32) -> Option<Value> {
        let cell = self.words.get((addr / 4) as usize)?;
        Some(Value(cell.load(Ordering::Relaxed)))
    }

    /// [`Self::write`] for callers that report the address themselves:
    /// `false`, writing nothing, outside memory.
    #[inline]
    pub(crate) fn try_write(&self, addr: u32, v: Value) -> bool {
        match self.words.get((addr / 4) as usize) {
            Some(cell) => cell.store(v.0, Ordering::Relaxed),
            None => return false,
        }
        true
    }

    /// Whether the `len` words from word index `word` on all lie in memory.
    #[inline]
    pub(crate) fn holds(&self, word: u32, len: usize) -> bool {
        self.cells(word as usize, len).is_some()
    }

    /// The `len` words from word index `word` on into `dst`, with one range
    /// check for the run; `false`, reading nothing, when it leaves memory.
    #[inline]
    pub(crate) fn read_run(&self, word: u32, dst: &mut [Value]) -> bool {
        let Some(cells) = self.cells(word as usize, dst.len()) else {
            return false;
        };
        for (d, cell) in dst.iter_mut().zip(cells) {
            *d = Value(cell.load(Ordering::Relaxed));
        }
        true
    }

    /// `src` to consecutive words from word index `word` on, with one range
    /// check for the run; `false`, writing nothing, when it leaves memory.
    #[inline]
    pub(crate) fn write_run(&self, word: u32, src: &[Value]) -> bool {
        let Some(cells) = self.cells(word as usize, src.len()) else {
            return false;
        };
        for (cell, v) in cells.iter().zip(src) {
            cell.store(v.0, Ordering::Relaxed);
        }
        true
    }

    /// Atomic read-modify-write; returns the old value. Uses a CAS loop so
    /// every [`g80_isa::AtomOp`] works uniformly.
    pub fn atomic(&self, op: g80_isa::AtomOp, addr: u32, src: Value) -> Value {
        let idx = (addr / 4) as usize;
        assert!(
            idx < self.words.len(),
            "atomic out of bounds: addr {addr:#x}"
        );
        let cell = &self.words[idx];
        let mut old = cell.load(Ordering::Relaxed);
        loop {
            let (new, _) = g80_isa::exec::eval_atom(op, Value(old), src);
            match cell.compare_exchange_weak(old, new.0, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return Value(old),
                Err(cur) => old = cur,
            }
        }
    }

    /// The `len` cells from word index `start` on, bounds-checked once for
    /// the whole range (what the bulk copies and the warp row runs pay
    /// instead of one check per word).
    #[inline]
    fn cells(&self, start: usize, len: usize) -> Option<&[AtomicU32]> {
        self.words.get(start..start + len)
    }

    /// [`Self::cells`] from a byte address, for the host-side copies.
    fn host_cells(&self, byte_addr: u32, len: usize, what: &str) -> &[AtomicU32] {
        match self.cells((byte_addr / 4) as usize, len) {
            Some(cells) => cells,
            None => panic!("global {what} out of bounds: {len} words at addr {byte_addr:#x}"),
        }
    }

    /// Host-side bulk write (cudaMemcpy host-to-device): `data`'s words land
    /// at consecutive word addresses from `byte_addr`.
    pub fn write_slice(&self, byte_addr: u32, data: impl ExactSizeIterator<Item = u32>) {
        for (cell, w) in self
            .host_cells(byte_addr, data.len(), "write")
            .iter()
            .zip(data)
        {
            cell.store(w, Ordering::Relaxed);
        }
    }

    /// Host-side bulk read (cudaMemcpy device-to-host): the `len` words from
    /// `byte_addr` on.
    pub fn read_slice(
        &self,
        byte_addr: u32,
        len: usize,
    ) -> impl ExactSizeIterator<Item = u32> + '_ {
        self.host_cells(byte_addr, len, "read")
            .iter()
            .map(|cell| cell.load(Ordering::Relaxed))
    }

    /// 128-bit digest of everything a kernel can read: the global words
    /// (hashed in one pass straight from the atomics — no snapshot), their
    /// count, the constant bank and the texture binding. The launch memo's
    /// key for "which input".
    pub(crate) fn image_digest(&self) -> (u64, u64) {
        let mut h = Mix128::new();
        for half in [
            digest_words(&self.words, |w| w.load(Ordering::Relaxed)),
            digest_words(&self.const_bank, |&w| w),
        ] {
            h.write_u64(half.0);
            h.write_u64(half.1);
        }
        match self.tex_binding {
            Some((base, len)) => {
                h.write_u32(1);
                h.write_u32(base);
                h.write_u32(len);
            }
            None => h.write_u32(0),
        }
        h.finish128()
    }

    /// Copies the entire word array out (memo-miss pre-images, retry
    /// snapshots).
    pub fn snapshot_words(&self) -> Vec<u32> {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Relaxed))
            .collect()
    }

    /// Restores a [`snapshot_words`](Self::snapshot_words) image, undoing
    /// every global write since the snapshot. The launch layer uses this to
    /// retry a launch whose partial writes would otherwise double-apply
    /// (kernels cannot write the constant bank or rebind textures, so the
    /// word image is the whole mutable state).
    pub fn restore_words(&self, snapshot: &[u32]) {
        assert_eq!(snapshot.len(), self.words.len(), "snapshot size mismatch");
        for (cell, &w) in self.words.iter().zip(snapshot) {
            cell.store(w, Ordering::Relaxed);
        }
    }

    /// Reads a constant-bank word at a byte address.
    #[inline]
    pub fn read_const(&self, addr: u32) -> Value {
        self.try_read_const(addr)
            .unwrap_or_else(|| const_out_of_bounds(addr))
    }

    /// [`Self::read_const`] for callers that must not unwind (witness
    /// replay): `None` when the address lies outside the constant bank.
    #[inline]
    pub fn try_read_const(&self, addr: u32) -> Option<Value> {
        self.const_bank.get((addr / 4) as usize).map(|&w| Value(w))
    }

    /// Resolves a texture fetch (byte offset into the bound window) to a
    /// global byte address.
    #[inline]
    pub fn tex_to_global(&self, addr: u32) -> u32 {
        let (base, len) = self
            .tex_binding
            .expect("texture fetch without a bound texture");
        assert!(addr < len, "texture fetch out of bounds: addr {addr:#x}");
        base + addr
    }
}

/// How a timed engine reports a constant address outside the bank (witness
/// replay fails instead and leaves the report to the timed fallback).
#[cold]
pub(crate) fn const_out_of_bounds(addr: u32) -> ! {
    panic!("const read out of bounds: addr {addr:#x}")
}

/// How a timed engine reports a global `read` or `write` outside memory.
#[cold]
pub(crate) fn global_out_of_bounds(what: &str, addr: u32) -> ! {
    panic!("global {what} out of bounds: addr {addr:#x}")
}

/// Word storage a warp memory row moves through: a block's shared memory,
/// device memory, or a replayed period's write buffer over device memory
/// ([`crate::witness::WriteBuf`]). `addr` is a lane's byte address, `word` a
/// word index. A `false` or `None` touches nothing: the caller then reports
/// the address (timed engine) or fails (witness replay).
pub(crate) trait Words {
    /// The word one lane reads; `None` outside the storage.
    fn read_word(&mut self, addr: u32) -> Option<Value>;
    /// One lane's write; `false` outside the storage.
    fn write_word(&mut self, addr: u32, v: Value) -> bool;
    /// The `dst.len()` words from `word` on, checked once for the run;
    /// `false` where the run leaves the storage (or, buffered, may read a
    /// buffered write) and the caller must walk its lanes instead.
    fn read_run(&mut self, word: u32, dst: &mut [Value]) -> bool;
    /// `src` to the words from `word` on, checked once for the run; `false`
    /// where the run leaves the storage.
    fn write_run(&mut self, word: u32, src: &[Value]) -> bool;
}

impl Words for [Value] {
    #[inline]
    fn read_word(&mut self, addr: u32) -> Option<Value> {
        self.get((addr / 4) as usize).copied()
    }

    #[inline]
    fn write_word(&mut self, addr: u32, v: Value) -> bool {
        match self.get_mut((addr / 4) as usize) {
            Some(w) => *w = v,
            None => return false,
        }
        true
    }

    #[inline]
    fn read_run(&mut self, word: u32, dst: &mut [Value]) -> bool {
        let start = word as usize;
        match self.get(start..start + dst.len()) {
            Some(run) => dst.copy_from_slice(run),
            None => return false,
        }
        true
    }

    #[inline]
    fn write_run(&mut self, word: u32, src: &[Value]) -> bool {
        let start = word as usize;
        match self.get_mut(start..start + src.len()) {
            Some(run) => run.copy_from_slice(src),
            None => return false,
        }
        true
    }
}

impl Words for &DeviceMemory {
    #[inline]
    fn read_word(&mut self, addr: u32) -> Option<Value> {
        self.try_read(addr)
    }

    #[inline]
    fn write_word(&mut self, addr: u32, v: Value) -> bool {
        self.try_write(addr, v)
    }

    #[inline]
    fn read_run(&mut self, word: u32, dst: &mut [Value]) -> bool {
        DeviceMemory::read_run(self, word, dst)
    }

    #[inline]
    fn write_run(&mut self, word: u32, src: &[Value]) -> bool {
        DeviceMemory::write_run(self, word, src)
    }
}

/// [`wide_digest`] over 32-bit words, two to a 64-bit chunk (low word
/// first; an odd last word is zero-extended), read through `load` so the same
/// function serves `AtomicU32` cells and plain slices.
fn digest_words<T>(words: &[T], load: impl Fn(&T) -> u32) -> (u64, u64) {
    wide_digest(words, 2, |pair| {
        load(&pair[0]) as u64 | pair.get(1).map_or(0, |hi| (load(hi) as u64) << 32)
    })
}

/// Result of analysing one half-warp's global access.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HalfWarpAccess {
    /// Whether the access met the CC 1.0 coalescing rules.
    pub coalesced: bool,
    /// Number of memory transactions issued.
    pub transactions: u32,
    /// Total bytes moved.
    pub bytes: u64,
}

/// Applies the GeForce 8800 (compute capability 1.0) coalescing rules to one
/// half-warp of byte addresses (`None` = inactive lane).
///
/// The access coalesces into a single transaction iff every active lane `k`
/// accesses word `k` of one aligned 16-word (64 B) segment. Anything else —
/// permuted, misaligned, strided, or broadcast — issues a separate
/// transaction per distinct address (duplicates optionally combined,
/// paper footnote 4) at DRAM burst granularity.
pub fn coalesce_half_warp(cfg: &GpuConfig, addrs: &[Option<u32>; 16]) -> HalfWarpAccess {
    let active: Vec<(usize, u32)> = addrs
        .iter()
        .enumerate()
        .filter_map(|(i, a)| a.map(|a| (i, a)))
        .collect();
    if active.is_empty() {
        return HalfWarpAccess {
            coalesced: true,
            transactions: 0,
            bytes: 0,
        };
    }

    // Segment base from any active lane: lane k at word k of the segment.
    let (lane0, addr0) = active[0];
    let base = addr0.wrapping_sub((lane0 as u32) * 4);
    let aligned = base % (cfg.coalesced_txn_bytes) == 0;
    let coalesced = aligned
        && active
            .iter()
            .all(|&(lane, addr)| addr == base + (lane as u32) * 4);

    if coalesced {
        HalfWarpAccess {
            coalesced: true,
            transactions: 1,
            bytes: cfg.coalesced_txn_bytes as u64,
        }
    } else {
        let mut addrs: Vec<u32> = active.iter().map(|&(_, a)| a).collect();
        if cfg.combine_duplicates {
            addrs.sort_unstable();
            addrs.dedup();
        }
        let n = addrs.len() as u32;
        HalfWarpAccess {
            coalesced: false,
            transactions: n,
            bytes: n as u64 * cfg.uncoalesced_txn_bytes as u64,
        }
    }
}

/// Computes the bank-conflict degree of one half-warp of shared-memory byte
/// addresses: the maximum number of *distinct* addresses mapping to one bank
/// (identical addresses broadcast for free on G80).
pub fn smem_conflict_degree(cfg: &GpuConfig, addrs: &[Option<u32>; 16]) -> u32 {
    let nbanks = cfg.smem_banks as usize;
    let mut per_bank: Vec<Vec<u32>> = vec![Vec::new(); nbanks];
    for a in addrs.iter().flatten() {
        let bank = ((a / 4) as usize) % nbanks;
        if !per_bank[bank].contains(a) {
            per_bank[bank].push(*a);
        }
    }
    per_bank
        .iter()
        .map(|v| v.len() as u32)
        .max()
        .unwrap_or(0)
        .max(1)
}

/// Allocation-free twin of [`coalesce_half_warp`]: same result for every
/// input, computed in stack buffers. The predecoded engine calls this in
/// its hot loop; the reference engine keeps the original, which is part of
/// its frozen host-cost baseline.
pub fn coalesce_half_warp_noalloc(cfg: &GpuConfig, addrs: &[Option<u32>; 16]) -> HalfWarpAccess {
    let mut lanes = [0u32; 16];
    let mut act = [0u32; 16];
    let mut n = 0usize;
    for (i, a) in addrs.iter().enumerate() {
        if let Some(a) = *a {
            lanes[n] = i as u32;
            act[n] = a;
            n += 1;
        }
    }
    if n == 0 {
        return HalfWarpAccess {
            coalesced: true,
            transactions: 0,
            bytes: 0,
        };
    }

    // Segment base from any active lane: lane k at word k of the segment.
    let base = act[0].wrapping_sub(lanes[0] * 4);
    let aligned = base % (cfg.coalesced_txn_bytes) == 0;
    let coalesced = aligned && (0..n).all(|k| act[k] == base + lanes[k] * 4);

    if coalesced {
        HalfWarpAccess {
            coalesced: true,
            transactions: 1,
            bytes: cfg.coalesced_txn_bytes as u64,
        }
    } else {
        let mut distinct = n as u32;
        if cfg.combine_duplicates {
            let s = &mut act[..n];
            s.sort_unstable();
            distinct = 1;
            for k in 1..n {
                if s[k] != s[k - 1] {
                    distinct += 1;
                }
            }
        }
        HalfWarpAccess {
            coalesced: false,
            transactions: distinct,
            bytes: distinct as u64 * cfg.uncoalesced_txn_bytes as u64,
        }
    }
}

/// Bank-conflict degree of a warp's shared access given lane by lane: the
/// worse of its two half-warps, each equal to [`smem_conflict_degree`] on
/// the active lanes of `addrs` under `mask`. A half whose active lanes all
/// hit different banks — the conflict-free case: no lane's bank bit is
/// already in the OR of those before it — has degree 1 without the
/// distinct-address scan.
#[inline]
pub fn smem_degree_lanes(cfg: &GpuConfig, addrs: &[u32; 32], mask: u32) -> u32 {
    let nbanks = cfg.smem_banks;
    if nbanks > 64 {
        let half = |h: usize| {
            std::array::from_fn(|l| (mask >> (16 * h + l) & 1 == 1).then(|| addrs[16 * h + l]))
        };
        return smem_conflict_degree(cfg, &half(0)).max(smem_conflict_degree(cfg, &half(1)));
    }
    // A power-of-two bank count (every preset) maps by mask, not `%`.
    let bank = |a: u32| {
        if nbanks.is_power_of_two() {
            (a / 4) & (nbanks - 1)
        } else {
            (a / 4) % nbanks
        }
    };
    let scan = |half: &[u32], mut live: u32| {
        let mut counts = [0u32; 64];
        let mut seen = [0u32; 16];
        let mut nseen = 0;
        while live != 0 {
            let a = half[live.trailing_zeros() as usize];
            live &= live - 1;
            if !seen[..nseen].contains(&a) {
                seen[nseen] = a;
                nseen += 1;
                counts[bank(a) as usize] += 1;
            }
        }
        counts.into_iter().max().unwrap_or(0).max(1)
    };
    let degree = |half: &[u32], live: u32| {
        let mut banks = 0u64;
        let mut m = live;
        while m != 0 {
            let bit = 1u64 << bank(half[m.trailing_zeros() as usize]);
            if banks & bit != 0 {
                return scan(half, live);
            }
            banks |= bit;
            m &= m - 1;
        }
        1
    };
    degree(&addrs[..16], mask & 0xffff).max(degree(&addrs[16..], mask >> 16))
}

/// The two terms that vary *within* one half-warp of a shaped address row,
/// as `(stride, lanes per run, step, runs per half)`: a half-warp is `16/p`
/// runs of `p` lanes, so at `p = 16` the step (which separates the halves)
/// drops out.
#[inline]
fn half_lattice(t: &AffineTerms) -> (u32, u32, u32, u32) {
    debug_assert!(
        t.log2p == 4 || t.step != t.stride << t.log2p,
        "1-D row below p = 16: not canonical"
    );
    let (p, runs) = (1u32 << t.log2p, 16u32 >> t.log2p);
    (t.stride, p, if runs == 1 { 0 } else { t.step }, runs)
}

/// Whether `term·d ≠ 0 (mod 2^32)` for every `1 ≤ d ≤ 15`: lanes stepping by
/// `term` then never wrap onto each other within a half-warp. True iff the
/// term's 2-adic valuation is below 29.
#[inline]
fn steps_stay_distinct(term: u32) -> bool {
    term.trailing_zeros() < 29
}

/// The number of distinct addresses in one half-warp of the lattice
/// `stride·j + step·r` (`j < p`, `r < runs`), or `None` when that is not
/// evident without looking at them. One zero term leaves the other term's
/// `p` or `runs` points; with both nonzero the 16 points are distinct when
/// the runs — or, transposed, the columns — are disjoint intervals that do
/// not wrap (every row-major or column-major tile walk).
#[inline]
fn lattice_distinct(stride: u32, p: u32, step: u32, runs: u32) -> Option<u32> {
    match (stride, step) {
        (0, 0) => Some(1),
        (0, term) => steps_stay_distinct(term).then_some(runs),
        (term, 0) => steps_stay_distinct(term).then_some(p),
        _ => {
            let (along, across) = (
                stride as u64 * (p - 1) as u64,
                step as u64 * (runs - 1) as u64,
            );
            let disjoint = along < step as u64 || across < stride as u64;
            (disjoint && along + across <= u32::MAX as u64).then_some(16)
        }
    }
}

/// Closed-form CC 1.0 coalescing for one *full* half-warp (`half` 0 or 1) of
/// a warp whose address row has the canonical shape `t` (see
/// [`g80_isa::LaneRow::affine`]): `16/p` runs of `p` lanes, the half
/// starting at `base + step·(16/p)·half`. Returns `None` when no closed form
/// applies (the caller falls back to the per-lane scan); `Some(acc)` is
/// bit-identical to [`coalesce_half_warp_noalloc`] on the expanded addresses.
///
/// Derivation (DESIGN.md §15): the coalesced pattern requires
/// `addr_k = seg + 4k` with `seg` aligned, and matching lane 1 already
/// forces `stride == 4`; lane `p` then forces `step == 4p`, a 1-D row, which
/// the canonical form holds at `p = 16` — so the access coalesces iff
/// `p == 16`, `stride == 4` and the half's base is a multiple of
/// `coalesced_txn_bytes`. Anything else issues one transaction per lane, or
/// per distinct address ([`lattice_distinct`]) when duplicates combine.
#[inline]
pub fn coalesce_affine_half(cfg: &GpuConfig, t: &AffineTerms, half: u32) -> Option<HalfWarpAccess> {
    let (stride, p, step, runs) = half_lattice(t);
    let base = t.base.wrapping_add(t.step.wrapping_mul(runs * half));
    if p == 16 && stride == 4 && base.is_multiple_of(cfg.coalesced_txn_bytes) {
        return Some(HalfWarpAccess {
            coalesced: true,
            transactions: 1,
            bytes: cfg.coalesced_txn_bytes as u64,
        });
    }
    let distinct = if cfg.combine_duplicates {
        lattice_distinct(stride, p, step, runs)?
    } else {
        16
    };
    Some(HalfWarpAccess {
        coalesced: false,
        transactions: distinct,
        bytes: distinct as u64 * cfg.uncoalesced_txn_bytes as u64,
    })
}

/// The addresses of the first `live` lanes of a shaped row, split into the
/// two half-warp arrays the scans consume.
fn affine_halves(t: &AffineTerms, live: u32) -> [[Option<u32>; 16]; 2] {
    let mut halves = [[None; 16]; 2];
    for_each_affine_lane(*t, live as usize, |l, a| halves[l / 16][l % 16] = Some(a));
    halves
}

/// Coalescing of both half-warps of an undiverged warp whose address row
/// has the shape `t` and whose first `live` lanes exist: equal to
/// [`coalesce_half_warp_noalloc`] on each half's expanded addresses. Whole
/// half-warps take the closed form ([`coalesce_affine_half`]) and a wholly
/// dead hi half (a 16-thread block) issues nothing; where no closed form
/// applies, or the last half-warp is only partly live, the addresses are
/// generated from the terms and scanned.
///
/// The terms go by reference all the way down: copying the four fields
/// out of wherever the caller assembled them is the slow step of an
/// otherwise constant-time answer.
#[inline]
pub fn coalesce_affine_warp(cfg: &GpuConfig, t: &AffineTerms, live: u32) -> [HalfWarpAccess; 2] {
    #[inline(never)]
    fn scan(cfg: &GpuConfig, t: &AffineTerms, live: u32) -> [HalfWarpAccess; 2] {
        affine_halves(t, live).map(|half| coalesce_half_warp_noalloc(cfg, &half))
    }
    if live.is_multiple_of(16) {
        let hi = match live {
            16 => Some(coalesce_half_warp_noalloc(cfg, &[None; 16])),
            _ => coalesce_affine_half(cfg, t, 1),
        };
        if let (Some(lo), Some(hi)) = (coalesce_affine_half(cfg, t, 0), hi) {
            return [lo, hi];
        }
    }
    scan(cfg, t, live)
}

/// Closed-form shared-memory bank-conflict degree for a *full* half-warp of
/// a canonical shaped address row. `None` means no closed form applies (the
/// caller falls back to the scan); `Some(d)` is bit-identical to
/// [`smem_conflict_degree`] on the expanded addresses, for *any*
/// base — so one evaluation covers both halves of a warp.
///
/// With 16 banks and word-multiple terms `4v`, `4w`, lane `(j, r)` of the
/// half hits bank `(base/4 + v·j + w·r) mod 16`. Once the addresses are
/// pairwise distinct ([`lattice_distinct`]) the degree is the fullest bank.
/// One nonzero term `4w` over `n` lanes (`n = 16` at `p = 16`; `p` or `16/p`
/// below it, the other term broadcasting) spreads them over
/// `min(n, 16/gcd(w, 16))` banks: degree `max(1, n·gcd(w mod 16, 16)/16)`,
/// with `w ≡ 0 (mod 16)` putting all `n` in one bank. `As[ty][k]` of a
/// `p`-wide tile is `{·, 0, 4·pitch}` — `16/p` broadcasts — and `Bs[k][tx]`
/// is `{·, 4, 0}` — `p` words each read `16/p` times: degree 1 both. Two
/// nonzero terms are counted over the `p × 16/p` lattice, sixteen bank
/// increments. Non-word terms fall back.
#[inline]
pub fn smem_degree_affine(cfg: &GpuConfig, t: &AffineTerms) -> Option<u32> {
    let (stride, p, step, runs) = half_lattice(t);
    if cfg.smem_banks != 16 || !stride.is_multiple_of(4) || !step.is_multiple_of(4) {
        return None;
    }
    // The counts below take pairwise-distinct addresses for granted.
    lattice_distinct(stride, p, step, runs)?;
    let words = |term: u32| term / 4 % 16;
    // gcd(w, 16) is 2 to the number of trailing zeros of w, at most 4.
    let one_term = |term: u32, n: u32| ((n << (term / 4).trailing_zeros().min(4)) / 16).max(1);
    Some(match (stride, step) {
        (0, 0) => 1,
        (0, term) => one_term(term, runs),
        (term, 0) => one_term(term, p),
        _ => {
            let mut per_bank = [0u32; 16];
            for r in 0..runs {
                for j in 0..p {
                    per_bank[((words(stride) * j + words(step) * r) % 16) as usize] += 1;
                }
            }
            per_bank.into_iter().max().unwrap_or(1)
        }
    })
}

/// Bank-conflict degree of an undiverged warp's shared access whose address
/// row has the shape `t` over its first `live` lanes: the worse of the two
/// half-warps, equal to [`smem_conflict_degree`] on each half's
/// expanded addresses. Whole half-warps share one closed form
/// ([`smem_degree_affine`]); otherwise the addresses are generated from the
/// terms and scanned (out of line, as in [`coalesce_affine_warp`]).
#[inline]
pub fn smem_degree_affine_warp(cfg: &GpuConfig, t: &AffineTerms, live: u32) -> u32 {
    #[inline(never)]
    fn scan(cfg: &GpuConfig, t: &AffineTerms, live: u32) -> u32 {
        let mut addrs = [0; 32];
        for_each_affine_lane(*t, live as usize, |l, a| addrs[l] = a);
        smem_degree_lanes(cfg, &addrs, ((1u64 << live) - 1) as u32)
    }
    if live.is_multiple_of(16) {
        if let Some(degree) = smem_degree_affine(cfg, t) {
            return degree;
        }
    }
    scan(cfg, t, live)
}

/// A direct-mapped per-SM cache model (tags only — data comes from the
/// backing store functionally). Used for both the constant and texture
/// caches.
pub struct TagCache {
    line_bytes: u32,
    tags: Vec<u64>,
}

impl TagCache {
    /// A cache of `size_bytes` capacity with `line_bytes` lines.
    pub fn new(size_bytes: u32, line_bytes: u32) -> Self {
        let lines = (size_bytes / line_bytes).max(1) as usize;
        TagCache {
            line_bytes,
            tags: vec![u64::MAX; lines],
        }
    }

    /// Looks up the line containing `addr`, filling on miss. Returns true on
    /// hit.
    pub fn access(&mut self, addr: u32) -> bool {
        let line = (addr / self.line_bytes) as u64;
        let set = (line as usize) % self.tags.len();
        if self.tags[set] == line {
            true
        } else {
            self.tags[set] = line;
            false
        }
    }

    /// The resident line tag of every set (`u64::MAX` = never filled): the
    /// cache's complete state, for callers that must tell whether two
    /// instants see the same cache ([`crate::sm`]'s period detector).
    pub fn tags(&self) -> &[u64] {
        &self.tags
    }

    /// Invalidates all lines.
    pub fn flush(&mut self) {
        self.tags.fill(u64::MAX);
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use g80_isa::exec::Row;

    fn cfg() -> GpuConfig {
        GpuConfig::geforce_8800_gtx()
    }

    fn lanes(addrs: &[u32]) -> [Option<u32>; 16] {
        let mut a = [None; 16];
        for (i, &x) in addrs.iter().enumerate() {
            a[i] = Some(x);
        }
        a
    }

    /// Two half-warps as the engine holds a warp's addresses: one row and
    /// the mask of its active lanes.
    fn warp_of(lo: &[Option<u32>; 16], hi: &[Option<u32>; 16]) -> ([u32; 32], u32) {
        let lane = |l: usize| if l < 16 { lo[l] } else { hi[l - 16] };
        let addrs = std::array::from_fn(|l| lane(l).unwrap_or(0xdead_beef));
        let mask = (0..32)
            .filter(|&l| lane(l).is_some())
            .fold(0, |m, l| m | 1 << l);
        (addrs, mask)
    }

    /// A seeded image (LCG words, high half of each state).
    fn seeded_memory(words: usize, seed: u64) -> DeviceMemory {
        let mem = DeviceMemory::new(words as u32 * 4);
        let mut x = seed;
        for i in 0..words {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            mem.write(i as u32 * 4, Value((x >> 32) as u32));
        }
        mem
    }

    fn slice_digest(words: &[u32]) -> (u64, u64) {
        digest_words(words, |&w| w)
    }

    fn assert_both_halves_differ(what: &str, a: (u64, u64), b: (u64, u64)) {
        assert_ne!(a.0, b.0, "{what}: first half unchanged");
        assert_ne!(a.1, b.1, "{what}: second half unchanged");
    }

    #[test]
    fn digest_read_from_the_atomics_equals_the_digest_of_a_snapshot() {
        // 0..=67 words covers every remainder of the 8-word round, odd
        // lengths (a half-filled chunk) and the empty image; 7 936 words is
        // the n=48 matmul device.
        for words in (0..=67).chain([7936]) {
            let mem = seeded_memory(words, words as u64);
            let live = digest_words(&mem.words, |w| w.load(Ordering::Relaxed));
            assert_eq!(live, slice_digest(&mem.snapshot_words()), "{words} words");
        }
    }

    #[test]
    fn digest_changes_in_both_halves_for_any_flip_swap_or_append() {
        let small = seeded_memory(67, 1).snapshot_words();
        let base = slice_digest(&small);
        for word in 0..small.len() {
            for bit in 0..32 {
                let mut flipped = small.clone();
                flipped[word] ^= 1 << bit;
                let what = format!("word {word} bit {bit}");
                assert_both_halves_differ(&what, base, slice_digest(&flipped));
            }
        }
        // The full-size image: one bit in each of a spread of words (every
        // lane, both chunk halves, first and last round).
        let large = seeded_memory(7936, 2).snapshot_words();
        let base = slice_digest(&large);
        for word in (0..7936).step_by(61).chain(7928..7936) {
            let mut flipped = large.clone();
            flipped[word] ^= 1 << (word % 32);
            assert_both_halves_differ(&format!("word {word}"), base, slice_digest(&flipped));
        }
        // Word w sits in chunk w/2, and chunk c in lane c mod 4: words 0 and
        // 8 share a lane, 0 and 2 do not, 0 and 1 share a chunk.
        for (i, j) in [(0, 8), (0, 2), (0, 1), (7000, 7008), (7000, 7003)] {
            let mut swapped = large.clone();
            swapped.swap(i, j);
            let what = format!("swap {i}<->{j}");
            assert_both_halves_differ(&what, base, slice_digest(&swapped));
        }
        for len in (0..=67).chain([7936]) {
            let mut longer = large[..len].to_vec();
            longer.push(0);
            let what = format!("{len} words + one zero word");
            assert_both_halves_differ(&what, slice_digest(&large[..len]), slice_digest(&longer));
        }
    }

    /// Differences spread over consecutive chunks of one lane must not
    /// cancel. Under an xor-linear lane step such as `rotl32((s ^ c)·K)` the
    /// top bit of a chunk reaches the lane's next chunk as one known bit, in
    /// both halves at once: negating f32 elements 1 and 8 of any image
    /// leaves the whole 128-bit digest unchanged (see `memo::lane_step`).
    #[test]
    fn digest_differences_in_one_lane_do_not_cancel() {
        let large = seeded_memory(7936, 4).snapshot_words();
        let base = slice_digest(&large);
        // Sign bits of words 2i+1 (bit 63 of chunk i) and 2i+8 (bit 31 of
        // chunk i+4, the lane's next chunk), first to last round.
        for i in [0, 1, 2, 3, 4, 1983, 3959, 3963] {
            let mut negated = large.clone();
            negated[2 * i + 1] ^= 1 << 31;
            negated[2 * i + 8] ^= 1 << 31;
            let what = format!("sign bits of words {} and {}", 2 * i + 1, 2 * i + 8);
            assert_both_halves_differ(&what, base, slice_digest(&negated));
        }
        // Every bit of chunk i against every bit of chunk i+4, alone and
        // together with the top bit (what a step that only shifts the
        // product down by a fixed amount would let through).
        let small = seeded_memory(67, 5).snapshot_words();
        let base = slice_digest(&small);
        let flip = |words: &mut [u32], chunk: usize, bits: u64| {
            words[2 * chunk] ^= bits as u32;
            words[2 * chunk + 1] ^= (bits >> 32) as u32;
        };
        for i in [0, 3, 17] {
            for p in 0..64 {
                for q in 0..64 {
                    for extra in [0, 1 << 63] {
                        let mut flipped = small.clone();
                        flip(&mut flipped, i, 1 << p);
                        flip(&mut flipped, i + 4, 1 << q | extra);
                        let what = format!("chunk {i} bit {p}, chunk {} bit {q}", i + 4);
                        assert_both_halves_differ(&what, base, slice_digest(&flipped));
                    }
                }
            }
        }
        // Seeded random differences in three consecutive chunks of a lane.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..2000 {
            let mut flipped = small.clone();
            let i = (next() % 20) as usize;
            for step in 0..3 {
                flip(&mut flipped, i + 4 * step, next() & next());
            }
            if flipped != small {
                assert_both_halves_differ("random lane difference", base, slice_digest(&flipped));
            }
        }
    }

    /// Two memories with equal content digest equal; a one-bit change to
    /// anything a kernel can read — a global word, a constant-bank word,
    /// the texture binding — does not.
    #[test]
    fn image_digest_covers_words_constants_and_texture_binding() {
        let image = || {
            let mut mem = seeded_memory(300, 3);
            mem.const_bank = vec![7, 8, 9];
            mem.tex_binding = Some((256, 512));
            mem
        };
        let base = image().image_digest();
        assert_eq!(base, image().image_digest(), "distinct objects, same image");

        let mem = image();
        mem.write(4 * 299, Value(mem.read(4 * 299).0 ^ 1));
        assert_both_halves_differ("global word", base, mem.image_digest());
        let mut mem = image();
        mem.const_bank[1] ^= 1 << 31;
        assert_both_halves_differ("constant word", base, mem.image_digest());
        let mut mem = image();
        mem.const_bank.push(0);
        assert_both_halves_differ("constant bank length", base, mem.image_digest());
        for binding in [None, Some((257, 512)), Some((256, 513))] {
            let mut mem = image();
            mem.tex_binding = binding;
            let what = format!("texture binding {binding:?}");
            assert_both_halves_differ(&what, base, mem.image_digest());
        }
        // Same words, one more (zero) word of memory.
        let longer = DeviceMemory::new(301 * 4);
        longer.restore_words(&[image().snapshot_words(), vec![0]].concat());
        let mut longer = longer;
        longer.const_bank = vec![7, 8, 9];
        longer.tex_binding = Some((256, 512));
        assert_both_halves_differ("image length", base, longer.image_digest());
    }

    /// One purpose-built address pattern per closed form, each checked
    /// against the scan it replaces: every period, both halves, every live
    /// prefix a block shape can produce.
    #[test]
    fn affine_closed_forms_match_scans() {
        // Deterministic LCG sweep over (base, stride, step, p) rows, plus
        // targeted edges. Bases and steps stay below 2^30 / (32/p) so the
        // scan's non-wrapping coalesced check cannot overflow in debug
        // builds on any run (the closed form is specified against the
        // release-mode wrapping scan).
        let mut configs = vec![cfg()];
        let mut alt = cfg();
        alt.combine_duplicates = !alt.combine_duplicates;
        configs.push(alt);
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        let mut cases: Vec<(u32, u32, u32, u8)> = Vec::new();
        for _ in 0..6000 {
            let log2p = 1 + (next() >> 33) as u8 % 4;
            // Mix aligned bases (so the coalesced verdict is reachable on
            // either half) with arbitrary ones.
            let r = next();
            let base = ((r >> 33) as u32 & 0x3fff_ffff) & if r & 1 == 0 { !63 } else { !0 };
            // Mix small strides (the interesting regime: zero, words, the
            // bank-aliasing multiples of 64) with arbitrary ones.
            let r = next();
            let stride = match r & 3 {
                0 => ((r >> 40) as u32) & 0xff,
                1 => ((r >> 40) as u32 & 0x1f) * 4,
                2 => ((r >> 40) as u32 & 3) * 64,
                _ => (r >> 32) as u32 & 0x7fff_ffff,
            };
            // The step relations real kernels produce: the 1-D continuation,
            // a run restart, a tile or row pitch in words, a pitch that
            // aliases banks, an arbitrary offset.
            let r = next();
            let step = match r & 7 {
                0 => (stride << log2p) & 0x03ff_ffff,
                1 => 0,
                2 | 3 => ((r >> 40) as u32 & 0x3f) * 4,
                4 => ((r >> 40) as u32 & 0xfff) * 64,
                5 => ((r >> 40) as u32 & 0xff) * 4 + 4 * stride,
                _ => (r >> 32) as u32 & 0x03ff_ffff,
            };
            cases.push((base, stride, step, log2p));
        }
        for s in [
            0,
            4,
            8,
            12,
            16,
            64,
            1,
            2,
            3,
            60,
            68,
            1 << 29,
            1 << 30,
            3 << 28,
        ] {
            for b in [0, 4, 64, 60, 0x1000, 0x1004, 0x3fff_0000] {
                for log2p in 1..=4u8 {
                    for step in [0, 4, 16, 20, 64, 1024, 1028, 1 << 29, s << log2p] {
                        cases.push((b, s, step & 0x03ff_ffff, log2p));
                    }
                }
            }
        }
        let (mut global_closed, mut smem_closed, mut narrow_closed) = (0, 0, 0);
        for c in &configs {
            for &(base, stride, step, log2p) in &cases {
                // Through the canonicalizing constructor, as every address
                // row the engine sees is.
                let t = g80_isa::LaneRow::affine(base, stride, step, log2p)
                    .terms()
                    .unwrap();
                // Each lane from its terms, independently of the shared walk.
                let lanes: [u32; 32] = std::array::from_fn(|l| t.lane(l as u32));
                let label = format!("{t:?} combine={}", c.combine_duplicates);
                for live in [4usize, 8, 16, 24, 32] {
                    let halves: [[Option<u32>; 16]; 2] = std::array::from_fn(|h| {
                        std::array::from_fn(|k| (16 * h + k < live).then(|| lanes[16 * h + k]))
                    });
                    assert_eq!(halves, affine_halves(&t, live as u32), "{label}");
                    let scans = halves.map(|half| coalesce_half_warp_noalloc(c, &half));
                    assert_eq!(scans, halves.map(|half| coalesce_half_warp(c, &half)));
                    let got = coalesce_affine_warp(c, &t, live as u32);
                    assert_eq!(got, scans, "global live={live} {label}");
                    let want = halves
                        .map(|half| smem_conflict_degree(c, &half))
                        .into_iter()
                        .max()
                        .unwrap();
                    let got = smem_degree_affine_warp(c, &t, live as u32);
                    assert_eq!(got, want, "smem live={live} {label}");
                }
                // The closed forms themselves, on whole half-warps.
                let halves = affine_halves(&t, 32);
                for (h, half) in halves.iter().enumerate() {
                    if let Some(got) = coalesce_affine_half(c, &t, h as u32) {
                        let want = coalesce_half_warp_noalloc(c, half);
                        assert_eq!(got, want, "global half {h} {label}");
                        global_closed += 1;
                        narrow_closed += (t.log2p < 4) as u32;
                    }
                    if let Some(got) = smem_degree_affine(c, &t) {
                        let want = smem_conflict_degree(c, half);
                        assert_eq!(got, want, "smem half {h} {label}");
                        smem_closed += 1;
                    }
                }
            }
        }
        // The sweep must exercise the forms, not only their refusals.
        let total = 4 * cases.len() as u32;
        assert!(global_closed > total / 2, "{global_closed} of {total}");
        assert!(smem_closed > total / 8, "{smem_closed} of {total}");
        assert!(narrow_closed > total / 4, "{narrow_closed} of {total}");
    }

    /// How a warp access resolves its lanes: the per-lane walk over the
    /// row's terms, `LaneAddrs`' run form, or its expanded lanes.
    #[derive(Copy, Clone, Debug)]
    enum Form {
        Walk,
        Runs,
        Lanes,
    }

    /// One warp load (into `row`) or store (from `row`) of the first `live`
    /// lanes of the row `t`, resolved as `form` says.
    fn access<W: Words + ?Sized>(
        form: Form,
        t: &AffineTerms,
        live: u32,
        words: &mut W,
        row: &mut Row,
        store: bool,
    ) -> Result<(), u32> {
        use crate::step::LaneAddrs;
        let addrs = match form {
            Form::Walk => {
                for l in 0..live as usize {
                    let a = t.lane(l as u32);
                    let done = if store {
                        words.write_word(a, row[l])
                    } else {
                        words.read_word(a).map(|v| row[l] = v).is_some()
                    };
                    if !done {
                        return Err(a);
                    }
                }
                return Ok(());
            }
            Form::Runs => LaneAddrs::Shaped(*t, live),
            Form::Lanes => {
                let mask = (u64::MAX >> (64 - live)) as u32;
                LaneAddrs::Lanes(std::array::from_fn(|l| t.lane(l as u32)), mask)
            }
        };
        if store {
            addrs.store(words, row)
        } else {
            addrs.load(words, row)
        }
    }

    /// A random shaped row for [`affine_runs_match_the_lane_walk`]: periods
    /// 1 to 16; strides 0, 4 and others; aligned, unaligned and wrapping
    /// bases; any step.
    fn random_terms(next: &mut impl FnMut() -> u32) -> AffineTerms {
        let log2p = (next() % 5) as u8;
        let stride = match next() % 4 {
            0 => 0,
            1 => 4,
            2 => [1, 2, 3, 8, 12, 64, 4u32.wrapping_neg()][next() as usize % 7],
            _ => next(),
        };
        let base = match next() % 3 {
            0 => next() % 512 * 4,
            1 => next() % 512 * 4 + 1 + next() % 3,
            _ => u32::MAX - next() % 128,
        };
        let step = match next() % 5 {
            0 => 0,
            1 => stride << log2p,
            2 => next() % 64 * 4,
            3 => next() % 256,
            _ => next(),
        };
        AffineTerms {
            base,
            stride,
            step,
            log2p,
        }
    }

    /// The run form of a warp load or store (`step::LaneAddrs`: a broadcast
    /// or a contiguous copy per run of `p` lanes) against the per-lane walk
    /// it replaces, on random rows — periods 1 to 16; strides 0, 4 and
    /// others; aligned, unaligned and wrapping bases; any step; every live
    /// prefix — over shared memory, device memory, and a replay write buffer
    /// holding writes of its own, each ending inside, exactly at, or past
    /// the access. Every form must leave the same row and the same memory
    /// and fail at the same address; the expanded-lanes form too.
    #[test]
    fn affine_runs_match_the_lane_walk() {
        use crate::witness::WriteBuf;
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 32) as u32
        };
        let seeded = |words: u32| -> Vec<Value> {
            (0..words)
                .map(|w| Value(w.wrapping_mul(0x9e37_79b9) ^ 0x5bd1_e995))
                .collect()
        };
        let (mut runs_done, mut runs_failed) = (0, 0);
        for _ in 0..2000 {
            let t = random_terms(&mut next);
            let stride = t.stride;
            let live = 1 + next() % 32;
            let lane_words: Vec<u32> = (0..live).map(|l| t.lane(l) / 4).collect();
            let (lo, hi) = (lane_words.iter().min(), lane_words.iter().max());
            let (lo, hi) = (*lo.unwrap(), *hi.unwrap());
            // Memory ending inside the access, just past its last word, or
            // further on; a far-flung access meets a small memory.
            let words = if hi < 1024 {
                match next() % 3 {
                    0 => lo + next() % (hi - lo + 1),
                    1 => hi + 1,
                    _ => hi + 2 + next() % 16,
                }
            } else {
                64 + next() % 64
            };
            // The write buffer's own writes, some of them where the access
            // reads, and maybe a read-back that builds its map first.
            let prior: Vec<(u32, u32)> = (0..next() % 4)
                .map(|k| {
                    let near = lane_words[next() as usize % lane_words.len()];
                    let w = if near < words && next() % 2 == 0 {
                        near
                    } else {
                        next() % words.max(1)
                    };
                    (w, 0x5000_0000 + k)
                })
                .filter(|&(w, _)| w < words)
                .collect();
            let read_back = next() % 2 == 0;
            let label = format!("{t:?} live={live} words={words} prior={prior:?}");

            for store in [false, true] {
                let start: Row = std::array::from_fn(|l| Value(0xa000_0000 + l as u32));
                // (outcome, row, every word the storage then shows) per
                // storage kind.
                let observe = |form: Form| {
                    let mut seen = Vec::new();
                    let mut smem = seeded(words);
                    let mut row = start;
                    let r = access(form, &t, live, &mut smem[..], &mut row, store);
                    seen.push((r, row, smem));

                    let image = |mem: &DeviceMemory| -> Vec<Value> {
                        mem.snapshot_words().into_iter().map(Value).collect()
                    };
                    let seeded_memory = || {
                        let mem = DeviceMemory::new(4 * words);
                        mem.restore_words(&seeded(words).iter().map(|v| v.0).collect::<Vec<_>>());
                        mem
                    };
                    let mem = seeded_memory();
                    let mut row = start;
                    let r = access(form, &t, live, &mut &mem, &mut row, store);
                    seen.push((r, row, image(&mem)));

                    let mem = seeded_memory();
                    let mut buf = WriteBuf::new(&mem);
                    for &(w, v) in &prior {
                        assert!(buf.write_word(4 * w, Value(v)));
                    }
                    if read_back {
                        if let Some(&(w, _)) = prior.first() {
                            buf.read_word(4 * w);
                        }
                    }
                    let mut row = start;
                    let r = access(form, &t, live, &mut buf, &mut row, store);
                    let shown: Vec<_> = (0..live).map(|l| buf.read_word(t.lane(l))).collect();
                    buf.commit();
                    // Read-your-own-writes: the buffer shows what its commit
                    // leaves behind.
                    let committed: Vec<_> = (0..live).map(|l| mem.try_read(t.lane(l))).collect();
                    assert_eq!(shown, committed, "{form:?} buffered store={store} {label}");
                    seen.push((r, row, image(&mem)));
                    seen
                };
                let want = observe(Form::Walk);
                for form in [Form::Runs, Form::Lanes] {
                    let got = observe(form);
                    for (kind, (got, want)) in ["shared", "global", "buffered"]
                        .iter()
                        .zip(got.iter().zip(&want))
                    {
                        let lane = (0..32).find(|&l| got.1[l] != want.1[l]);
                        let word = (0..want.2.len()).find(|&w| got.2[w] != want.2[w]);
                        assert!(
                            got == want,
                            "{form:?} {kind} store={store} {label}: outcome {:?}, walk {:?}; \
                             first differing lane {lane:?}, word {word:?}",
                            got.0,
                            want.0,
                        );
                    }
                }
                if stride == 0 || stride == 4 {
                    match want[0].0 {
                        Ok(()) => runs_done += 1,
                        Err(_) => runs_failed += 1,
                    }
                }
            }
        }
        // The sweep must reach the run form both ways, not only the walk.
        assert!(
            runs_done > 400 && runs_failed > 400,
            "{runs_done} / {runs_failed}"
        );
    }

    #[test]
    fn affine_closed_form_known_answers() {
        let c = cfg();
        let mut combining = cfg();
        combining.combine_duplicates = true;
        let row = |base, stride, step, p: u32| {
            g80_isa::LaneRow::affine(base, stride, step, p.trailing_zeros() as u8)
                .terms()
                .unwrap()
        };
        let linear = AffineTerms::linear;
        // Unit word stride, aligned: the coalesced fast case.
        let r = coalesce_affine_half(&c, &linear(0x1000, 4), 0).unwrap();
        assert!(r.coalesced);
        assert_eq!(r.transactions, 1);
        // Unit word stride, misaligned: 16 transactions.
        let r = coalesce_affine_half(&c, &linear(0x1004, 4), 1).unwrap();
        assert!(!r.coalesced);
        assert_eq!(r.transactions, 16);
        // The hi half of a 16-wide tile row starts one pitch further on.
        let tile = row(0x1000, 4, 1024 + 4, 16);
        assert!(coalesce_affine_half(&c, &tile, 0).unwrap().coalesced);
        assert!(!coalesce_affine_half(&c, &tile, 1).unwrap().coalesced);
        // Broadcast: one combined transaction where duplicates combine.
        let r = coalesce_affine_half(&c, &linear(0x1000, 0), 0).unwrap();
        assert_eq!(r.transactions, 16);
        let r = coalesce_affine_half(&combining, &linear(0x1000, 0), 0).unwrap();
        assert_eq!(r.transactions, 1);
        // Collision-prone stride falls back where duplicates matter.
        assert!(coalesce_affine_half(&combining, &linear(0, 1 << 29), 0).is_none());
        assert!(coalesce_affine_half(&combining, &linear(0, 1 << 31), 0).is_none());
        // An 8-wide tile's rows A[ty][tx]: two runs of eight words, a pitch
        // apart — never coalesced, sixteen transactions; a row broadcast
        // A[ty][k] is two addresses, a column B[k][tx] eight.
        let a = row(0x1000, 4, 1024, 8);
        for (cfg, want) in [(&c, [16, 16, 16]), (&combining, [16, 2, 8])] {
            for (t, want) in [a, row(0x1000, 0, 1024, 8), row(0x1000, 4, 0, 8)]
                .into_iter()
                .zip(want)
            {
                let r = coalesce_affine_half(cfg, &t, 1).unwrap();
                assert!(!r.coalesced);
                assert_eq!(r.transactions, want, "{t:?}");
            }
        }
        // Overlapping runs (pitch shorter than a run) need the scan.
        assert!(coalesce_affine_half(&combining, &row(0, 4, 8, 8), 0).is_none());
        // A 4x4 block is one half-warp: the hi half issues nothing.
        let [lo, hi] = coalesce_affine_warp(&c, &row(0x1000, 4, 256, 4), 16);
        assert_eq!((lo.transactions, hi.transactions, hi.bytes), (16, 0, 0));
        // Shared: broadcast 1, word stride 1, 2-word stride 2, 16-word 16.
        assert_eq!(smem_degree_affine(&c, &linear(0, 0)), Some(1));
        assert_eq!(smem_degree_affine(&c, &linear(0, 4)), Some(1));
        assert_eq!(smem_degree_affine(&c, &linear(0, 8)), Some(2));
        assert_eq!(smem_degree_affine(&c, &linear(0, 64)), Some(16));
        assert_eq!(smem_degree_affine(&c, &linear(0, 2)), None); // sub-word stride
                                                                 // The tiled matmul's reads at p = 4 and 8: As[ty][k] broadcasts per
                                                                 // row, Bs[k][tx] reads p words — conflict-free both.
        for p in [4, 8] {
            assert_eq!(smem_degree_affine(&c, &row(8, 0, 4 * p, p)), Some(1));
            assert_eq!(smem_degree_affine(&c, &row(8, 4, 0, p)), Some(1));
        }
        // Rows a bank-aliasing pitch apart collide run against run...
        assert_eq!(smem_degree_affine(&c, &row(0, 0, 64, 4)), Some(4));
        assert_eq!(smem_degree_affine(&c, &row(0, 0, 32, 4)), Some(2));
        assert_eq!(smem_degree_affine(&c, &row(0, 4, 64, 4)), Some(4));
        assert_eq!(smem_degree_affine(&c, &row(0, 4, 64, 8)), Some(2));
        // ...and a pitch of 4 (mod 16) words tiles the banks exactly.
        assert_eq!(smem_degree_affine(&c, &row(0, 4, 80, 4)), Some(1));
        assert_eq!(smem_degree_affine(&c, &row(0, 4, 20, 4)), Some(2));
    }

    #[test]
    fn contiguous_aligned_coalesces() {
        let a: Vec<u32> = (0..16).map(|i| 0x1000 + i * 4).collect();
        let r = coalesce_half_warp(&cfg(), &lanes(&a));
        assert!(r.coalesced);
        assert_eq!(r.transactions, 1);
        assert_eq!(r.bytes, 64);
    }

    #[test]
    fn partial_half_warp_still_coalesces() {
        // Only 8 active lanes, but each at its own word slot.
        let mut a = [None; 16];
        for i in 0..8 {
            a[i] = Some(0x2000 + (i as u32) * 4);
        }
        let r = coalesce_half_warp(&cfg(), &a);
        assert!(r.coalesced);
        assert_eq!(r.transactions, 1);
    }

    #[test]
    fn misaligned_contiguous_does_not_coalesce() {
        // Contiguous but shifted by one word: 16 separate transactions on
        // CC 1.0 — the classic 16x penalty.
        let a: Vec<u32> = (0..16).map(|i| 0x1004 + i * 4).collect();
        let r = coalesce_half_warp(&cfg(), &lanes(&a));
        assert!(!r.coalesced);
        assert_eq!(r.transactions, 16);
        assert_eq!(r.bytes, 16 * cfg().uncoalesced_txn_bytes as u64);
    }

    #[test]
    fn permuted_does_not_coalesce() {
        let mut a: Vec<u32> = (0..16).map(|i| 0x1000 + i * 4).collect();
        a.swap(0, 1);
        let r = coalesce_half_warp(&cfg(), &lanes(&a));
        assert!(!r.coalesced);
        assert_eq!(r.transactions, 16);
    }

    #[test]
    fn strided_pays_per_lane() {
        // Stride-2 words: every active lane its own transaction.
        let a: Vec<u32> = (0..16).map(|i| 0x1000 + i * 8).collect();
        let r = coalesce_half_warp(&cfg(), &lanes(&a));
        assert!(!r.coalesced);
        assert_eq!(r.transactions, 16);
    }

    #[test]
    fn broadcast_combines_when_enabled() {
        // Footnote-4 combining is available as a model option…
        let mut c = cfg();
        c.combine_duplicates = true;
        let a = vec![0x1000u32; 16];
        let r = coalesce_half_warp(&c, &lanes(&a));
        assert!(!r.coalesced);
        assert_eq!(r.transactions, 1);
        assert_eq!(r.bytes, c.uncoalesced_txn_bytes as u64);
    }

    #[test]
    fn broadcast_serializes_by_default() {
        // …but the calibrated CC 1.0 default issues one transaction per
        // active lane, duplicates included.
        let a = vec![0x1000u32; 16];
        let r = coalesce_half_warp(&cfg(), &lanes(&a));
        assert_eq!(r.transactions, 16);
    }

    #[test]
    fn inactive_half_warp_is_free() {
        let r = coalesce_half_warp(&cfg(), &[None; 16]);
        assert_eq!(r.transactions, 0);
        assert_eq!(r.bytes, 0);
    }

    #[test]
    fn bank_conflicts() {
        let c = cfg();
        // All 16 lanes hit distinct banks: degree 1.
        let a: Vec<u32> = (0..16).map(|i| i * 4).collect();
        assert_eq!(smem_conflict_degree(&c, &lanes(&a)), 1);
        // Stride-2 words: 8 banks each hit by 2 distinct addrs: degree 2.
        let a: Vec<u32> = (0..16).map(|i| i * 8).collect();
        assert_eq!(smem_conflict_degree(&c, &lanes(&a)), 2);
        // Stride-16 words: all in bank 0: degree 16.
        let a: Vec<u32> = (0..16).map(|i| i * 64).collect();
        assert_eq!(smem_conflict_degree(&c, &lanes(&a)), 16);
        // Same address everywhere: broadcast, degree 1.
        let a = vec![128u32; 16];
        assert_eq!(smem_conflict_degree(&c, &lanes(&a)), 1);
    }

    #[test]
    fn device_memory_rw_and_atomics() {
        let m = DeviceMemory::new(1024);
        m.write(0, Value::from_f32(1.5));
        assert_eq!(m.read(0).as_f32(), 1.5);
        m.write_slice(16, [1, 2, 3].into_iter());
        assert_eq!(m.read_slice(16, 3).collect::<Vec<_>>(), [1, 2, 3]);
        // The last words of memory are in range; one past them is not.
        m.write_slice(1024 - 8, [7, 8].into_iter());
        assert_eq!(m.read_slice(1024 - 8, 2).collect::<Vec<_>>(), [7, 8]);
        assert_eq!(m.read_slice(1024, 0).count(), 0);

        let old = m.atomic(g80_isa::AtomOp::Add, 16, Value::from_u32(10));
        assert_eq!(old.as_u32(), 1);
        assert_eq!(m.read(16).as_u32(), 11);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_read_panics() {
        let m = DeviceMemory::new(64);
        m.read(64);
    }

    /// A bulk copy that runs off the end is refused whole: nothing lands.
    #[test]
    fn oob_slices_panic_before_touching_memory() {
        let m = DeviceMemory::new(64);
        let write = std::panic::catch_unwind(|| m.write_slice(56, [1, 2, 3].into_iter()));
        assert!(write.is_err());
        assert_eq!(m.read_slice(56, 2).collect::<Vec<_>>(), [0, 0]);
        assert!(std::panic::catch_unwind(|| m.read_slice(60, 2).count()).is_err());
    }

    #[test]
    fn mixed_half_warp_scattered_lanes_coalesce_at_their_slots() {
        // Active lanes 1, 5, 12 each at word k of the segment: coalesces.
        let mut a = [None; 16];
        for lane in [1usize, 5, 12] {
            a[lane] = Some(0x4000 + (lane as u32) * 4);
        }
        let r = coalesce_half_warp(&cfg(), &a);
        assert!(r.coalesced);
        assert_eq!(r.transactions, 1);

        // One of them off its slot breaks the whole half-warp.
        a[5] = Some(0x4000 + 6 * 4);
        let r = coalesce_half_warp(&cfg(), &a);
        assert!(!r.coalesced);
        assert_eq!(r.transactions, 3);
    }

    #[test]
    fn unaligned_segment_base_never_coalesces() {
        // A single active lane whose implied segment base is not 64 B
        // aligned: lane 0 at 0x1010 puts the base mid-segment.
        let mut a = [None; 16];
        a[0] = Some(0x1010);
        let r = coalesce_half_warp(&cfg(), &a);
        assert!(!r.coalesced);
        assert_eq!(r.transactions, 1);
        assert_eq!(r.bytes, cfg().uncoalesced_txn_bytes as u64);
    }

    /// The allocation-free twins must agree with the originals on every
    /// access shape the engine can produce. Sweeps structured patterns and
    /// an LCG-driven random battery under both duplicate-combining modes.
    #[test]
    fn noalloc_twins_match_originals() {
        let mut cfgs = [cfg(), cfg()];
        cfgs[1].combine_duplicates = true;

        let mut patterns: Vec<[Option<u32>; 16]> = vec![
            [None; 16],
            lanes(&(0..16).map(|i| 0x1000 + i * 4).collect::<Vec<_>>()),
            lanes(&(0..16).map(|i| 0x1004 + i * 4).collect::<Vec<_>>()),
            lanes(&(0..16).map(|i| 0x1000 + i * 8).collect::<Vec<_>>()),
            lanes(&[0x2000u32; 16]),
            lanes(&(0..16).map(|i| i * 64).collect::<Vec<_>>()),
        ];
        // Deterministic LCG battery: random addresses, random lane masks.
        let mut state = 0x1234_5678u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for _ in 0..200 {
            let mask = next() & 0xffff;
            let mut a = [None; 16];
            for (lane, slot) in a.iter_mut().enumerate() {
                if mask & (1 << lane) != 0 {
                    // Word-aligned addresses in a small window so duplicates
                    // and shared-bank collisions actually occur.
                    *slot = Some((next() % 256) * 4);
                }
            }
            patterns.push(a);
        }

        for c in &cfgs {
            for a in &patterns {
                assert_eq!(
                    coalesce_half_warp(c, a),
                    coalesce_half_warp_noalloc(c, a),
                    "coalesce twins disagree on {a:?}"
                );
                let (addrs, mask) = warp_of(a, &[None; 16]);
                assert_eq!(
                    smem_conflict_degree(c, a),
                    smem_degree_lanes(c, &addrs, mask),
                    "smem twins disagree on {a:?}"
                );
            }
        }
    }

    /// `smem_degree_lanes` (its conflict-free fast path and its scan) is
    /// the allocating per-half scan: on random half-warps and on broadcast,
    /// duplicate, 2- to 16-way-conflict and partly inactive ones, for 16,
    /// 32, a non-power-of-two and a beyond-64 bank count.
    #[test]
    fn lanes_degree_matches_the_allocating_scan() {
        let mut state = 0x9e37_79b9u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for nbanks in [16u32, 32, 24, 96] {
            let c = GpuConfig {
                smem_banks: nbanks,
                ..cfg()
            };
            let stride = 4 * nbanks;
            let mut halves: Vec<[Option<u32>; 16]> = vec![
                [None; 16],
                [Some(0x40); 16],
                lanes(&(0..16).map(|i| 0x100 + i * 4).collect::<Vec<_>>()),
                lanes(&(0..16).map(|i| 0x100 + (i / 2) * 4).collect::<Vec<_>>()),
            ];
            // k lanes in one bank at distinct addresses, the rest spread
            // over the other banks; then each with a duplicate folded in.
            for k in 2..=16u32 {
                let h: Vec<u32> = (0..16)
                    .map(|i| if i < k { i * stride } else { 4 * (i - k + 1) })
                    .collect();
                halves.push(lanes(&h));
                let mut dup = lanes(&h);
                dup[15] = dup[0];
                halves.push(dup);
            }
            for _ in 0..400 {
                let window = [nbanks, 4 * nbanks, 1 << 20][next() as usize % 3];
                halves.push(std::array::from_fn(|_| {
                    let a = (next() % window) * 4 + [0, 1, 2][next() as usize % 3];
                    (next() % 4 != 0).then_some(a)
                }));
            }
            // Every half, with random lanes switched off, in either slot.
            for (i, half) in halves.iter().enumerate() {
                let off = next() & next();
                let thinned: [Option<u32>; 16] =
                    std::array::from_fn(|l| half[l].filter(|_| off >> l & 1 == 0));
                let other = &halves[(i * 7 + 3) % halves.len()];
                for (lo, hi) in [(half, other), (other, half), (&thinned, half)] {
                    let (addrs, mask) = warp_of(lo, hi);
                    let want = smem_conflict_degree(&c, lo).max(smem_conflict_degree(&c, hi));
                    assert_eq!(
                        smem_degree_lanes(&c, &addrs, mask),
                        want,
                        "{nbanks} banks: {lo:?} {hi:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn tag_cache_eviction_is_per_set() {
        let mut c = TagCache::new(128, 32); // 4 direct-mapped lines
        assert!(!c.access(0)); // set 0 cold
        assert!(!c.access(32)); // set 1 cold
        assert!(!c.access(128)); // set 0 conflict, evicts line 0
        assert!(c.access(128 + 28)); // line 4 now resident in set 0
        assert!(c.access(32)); // set 1 untouched by set 0 eviction
        assert!(!c.access(0)); // line 0 was indeed evicted
    }

    #[test]
    fn tag_cache_behaviour() {
        let mut c = TagCache::new(128, 32); // 4 lines
        assert!(!c.access(0)); // cold miss
        assert!(c.access(4)); // same line
        assert!(!c.access(128)); // maps to set 0, evicts
        assert!(!c.access(0)); // conflict miss
        c.flush();
        assert!(!c.access(4));
    }
}
