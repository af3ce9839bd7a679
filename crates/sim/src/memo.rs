//! Launch memoization and the process-wide predecode registry.
//!
//! The paper's methodology is a *search*: tuner fleets and sweeps re-run
//! launches that are bit-identical to ones already simulated. The memo
//! cache makes the repeat free. A launch is keyed by everything that can
//! influence its result — kernel content, launch geometry, machine config,
//! parameter values, and a digest of the full pre-launch device-memory
//! image (global words, constant bank, texture binding) — plus the active
//! engine/dedup mode, so oracle and A/B runs never share entries with the
//! product's. A hit replays the launch's recorded effect: the cached
//! [`KernelStats`] is returned and the recorded sparse memory delta is
//! re-applied, leaving memory bit-identical to a real simulation.
//!
//! The same module hosts the predecode registry: a content-hash-keyed map
//! from kernel code to its [`DecodedKernel`] plus the dataflow facts the
//! block-deduplication layer needs ([`KernelInfo`]), so repeated single
//! launches predecode and analyze once per process, not once per launch.
//!
//! Both structures are bounded (LRU eviction). The registry is process-wide
//! (content-addressed, so every context agrees on every entry); the launch
//! cache belongs to a [`SimContext`], whose `memo: false` freezes the
//! uncached baseline.

use crate::config::GpuConfig;
use crate::context::SimContext;
use crate::counters::KernelStats;
use crate::disk;
use crate::fault::{self, lock_recover, Site};
use crate::memory::DeviceMemory;
use crate::sm::LaunchDims;
use crate::wire;
use g80_isa::dataflow::{self, TaintSummary};
use g80_isa::{DecodedKernel, Kernel, Value};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Mutex, OnceLock};

// ---- hashing ---------------------------------------------------------------

/// 64-bit streaming hasher (multiply-xor with a strong finalizer), seeded so
/// two instances give independent halves of a 128-bit digest. Deterministic
/// across processes, which is what lets [`crate::disk`] address entries on
/// disk by the same digests the in-process cache uses.
pub(crate) struct Mix64(u64);

impl Mix64 {
    pub(crate) fn new(seed: u64) -> Self {
        Mix64(seed ^ 0x9e37_79b9_7f4a_7c15)
    }
}

impl Hasher for Mix64 {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ byte as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    fn write_u32(&mut self, v: u32) {
        self.0 = (self.0 ^ v as u64).wrapping_mul(0xff51_afd7_ed55_8ccd);
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    }
    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^= h >> 33;
        h
    }
}

/// The 128-bit streaming hasher every memo digest goes through: two
/// [`Mix64`] lanes under different seeds, both advanced by every write, so
/// the input is fed once and the two multiply chains overlap. Narrow
/// integers (enum tags, `bool`s, lengths) take one step each instead of
/// falling back to the bytewise loop.
pub(crate) struct Mix128 {
    a: Mix64,
    b: Mix64,
}

impl Mix128 {
    pub(crate) fn new() -> Self {
        Mix128 {
            a: Mix64::new(0x243f_6a88_85a3_08d3),
            b: Mix64::new(0x1319_8a2e_0370_7344),
        }
    }
    pub(crate) fn finish128(&self) -> (u64, u64) {
        (self.a.finish(), self.b.finish())
    }
}

impl Hasher for Mix128 {
    fn write(&mut self, bytes: &[u8]) {
        self.a.write(bytes);
        self.b.write(bytes);
    }
    fn write_u8(&mut self, v: u8) {
        self.write_u32(v as u32);
    }
    fn write_u16(&mut self, v: u16) {
        self.write_u32(v as u32);
    }
    fn write_u32(&mut self, v: u32) {
        self.a.write_u32(v);
        self.b.write_u32(v);
    }
    fn write_u64(&mut self, v: u64) {
        self.a.write_u64(v);
        self.b.write_u64(v);
    }
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
    /// The first half; [`Mix128::finish128`] is the digest.
    fn finish(&self) -> u64 {
        self.a.finish()
    }
}

/// Independent lanes of [`wide_digest`].
const WIDE_LANES: usize = 4;

/// One lane step of [`wide_digest`]. A lane is 128 bits of state as two
/// words; a step multiplies `lo ^ chunk` by an odd constant into the full
/// 64×64→128-bit product and combines the old state into it *swapped*, once
/// by xor and once by addition: `(lo, hi) ← (p_lo ^ hi, p_hi + lo)`. Both
/// product halves are kept, so one multiply puts a chunk into both words.
///
/// What the construction has to rule out: an odd multiplier passes the top
/// bit of `lo ^ chunk` through as exactly the top bit of `p_lo`, so a step
/// that keeps only a rotated or xor-shifted `p_lo` turns a top-bit flip into
/// one fixed state difference, and a matching flip in the lane's next chunk
/// removes it — negating two f32 words eight apart would leave all 128 bits
/// unchanged. Here the same flip also moves `p_hi` by `K/2` plus a carry,
/// whose xor difference depends on the state (at most 2⁻²⁰ for any one
/// value), and the swap keeps it: a chunk is only ever xored into `lo`, the
/// difference it cannot reach sits in `hi`, and the step that cancels one
/// word moves the other into its place. For a difference to die, a later
/// step's `p_lo` and `p_hi` differences must both equal what the lane holds,
/// two state-dependent matches; xor on one word and `+` on the other keep a
/// repeat of the first difference from being that match. (A hash, not a MAC:
/// whoever knows the state can still construct a collision.)
#[inline(always)]
fn lane_step((lo, hi): (u64, u64), chunk: u64) -> (u64, u64) {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let p = (lo ^ chunk) as u128 * K as u128;
    (p as u64 ^ hi, ((p >> 64) as u64).wrapping_add(lo))
}

/// Wide one-pass 128-bit digest of bulk data (the device image, the constant
/// bank, a memo entry's delta). The input is cut into 64-bit chunks of `per`
/// items each; chunk `i` goes to lane `i mod 4`, four independent multiply
/// chains — a streaming hasher spends its time waiting on one chain's
/// latency — and [`lane_step`] spreads it over both words of the lane's
/// 128-bit state. The step is not a bijection: two states of a lane merge
/// with probability 2⁻¹²⁸ a step, an ideal hash's rate. A short last round is
/// zero-padded; the item count (so padding cannot alias a longer input) and
/// the eight lane words are folded through [`Mix128`], every word into both
/// halves of the digest.
#[inline]
pub(crate) fn wide_digest<T>(items: &[T], per: usize, chunk: impl Fn(&[T]) -> u64) -> (u64, u64) {
    let mut lanes: [(u64, u64); WIDE_LANES] = [
        (0xa409_3822_299f_31d0, 0xc0ac_29b7_c97c_50dd),
        (0x082e_fa98_ec4e_6c89, 0x3f84_d5b5_b547_0917),
        (0x4528_21e6_38d0_1377, 0x9216_d5d9_8979_fb1b),
        (0xbe54_66cf_34e9_0c6c, 0xd131_0ba6_98df_b5ac),
    ];
    let mut round = |chunks: [u64; WIDE_LANES]| {
        for (lane, c) in lanes.iter_mut().zip(chunks) {
            *lane = lane_step(*lane, c);
        }
    };
    let mut rounds = items.chunks_exact(per * WIDE_LANES);
    for r in &mut rounds {
        round(std::array::from_fn(|l| chunk(&r[per * l..per * (l + 1)])));
    }
    let rest = rounds.remainder();
    if !rest.is_empty() {
        let mut last = [0u64; WIDE_LANES];
        for (slot, c) in last.iter_mut().zip(rest.chunks(per)) {
            *slot = chunk(c);
        }
        round(last);
    }
    let mut h = Mix128::new();
    h.write_u64(items.len() as u64);
    for (lo, hi) in lanes {
        h.write_u64(lo);
        h.write_u64(hi);
    }
    h.finish128()
}

/// Content hash of a kernel's code (the predecode registry key).
fn code_hash(code: &[g80_isa::Inst]) -> (u64, u64) {
    let mut h = Mix128::new();
    code.hash(&mut h);
    h.finish128()
}

// ---- predecode registry ----------------------------------------------------

/// Everything the launch path derives from a kernel's content, computed once
/// per process per distinct kernel code.
pub struct KernelInfo {
    /// Micro-op table for the engine.
    pub decoded: DecodedKernel,
    /// Dataflow facts from [`g80_isa::dataflow::analyze`].
    pub taint: TaintSummary,
    /// Whether block-class dedup may engage: timing is data-independent,
    /// the kernel has no atomics (inter-block coupling through memory) and
    /// no texture fetches, and every constant-space address is provably
    /// `ctaid`-free. Constant loads do couple the blocks of an SM through
    /// its constant cache, but with block-invariant addresses the coupling
    /// is itself deterministic: the cache tags are part of the recurring
    /// state the period detector compares, and every SM starts cold (see
    /// [`crate::witness`]).
    pub dedup_eligible: bool,
    /// Shared-memory addresses are provably `ctaid`-free: every block's
    /// bank-conflict degrees equal the representative's by construction, so
    /// the replay executor skips recomputing and re-verifying them.
    pub shared_uniform: bool,
}

struct Registry {
    map: HashMap<(u64, u64), (Arc<KernelInfo>, u64)>,
    tick: u64,
}

const REGISTRY_CAP: usize = 256;

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        Mutex::new(Registry {
            map: HashMap::new(),
            tick: 0,
        })
    })
}

/// Returns the predecoded table and dataflow facts for this kernel,
/// computing and caching them on first sight of its code. Keyed by content,
/// so clones and rebuilt kernels with identical code share one entry.
pub fn kernel_info(kernel: &Kernel) -> Arc<KernelInfo> {
    let key = code_hash(&kernel.code);
    {
        let mut reg = lock_recover(registry());
        reg.tick += 1;
        let tick = reg.tick;
        if let Some((info, last_used)) = reg.map.get_mut(&key) {
            *last_used = tick;
            return Arc::clone(info);
        }
    }
    // Decode and analyze *outside* the registry lock: predecode can unwind
    // (the isa.decode site, polled in the launching thread's context), and
    // an unwind here must leave the registry untouched. Two racing
    // first-decoders both compute; the loser's insert simply overwrites an
    // identical entry.
    SimContext::with_current(|ctx| ctx.faults().poll(Site::Decode));
    let taint = dataflow::analyze(&kernel.code);
    let dedup_eligible = taint.timing_data_independent()
        && !taint.has_atomic
        && !taint.ctaid_cached_addr
        && !taint.uses_tex
        && !kernel.code.is_empty();
    let info = Arc::new(KernelInfo {
        decoded: DecodedKernel::new(kernel),
        taint,
        dedup_eligible,
        shared_uniform: !taint.ctaid_shared_addr,
    });
    let mut reg = lock_recover(registry());
    reg.tick += 1;
    let tick = reg.tick;
    if reg.map.len() >= REGISTRY_CAP {
        if let Some(&old) = reg
            .map
            .iter()
            .min_by_key(|(_, (_, used))| *used)
            .map(|(k, _)| k)
        {
            reg.map.remove(&old);
        }
    }
    reg.map.insert(key, (Arc::clone(&info), tick));
    info
}

// ---- launch memo cache -----------------------------------------------------

#[derive(Clone, PartialEq, Eq, Hash)]
struct MemoKey {
    kernel: (u64, u64),
    config: u64,
    grid: (u32, u32),
    block: (u32, u32, u32),
    params: u64,
    input: (u64, u64),
    /// Engine/dedup discriminants ([`mode_bits`]): launches under different
    /// modes never share entries, so oracle and A/B comparisons stay honest.
    mode: u8,
}

struct MemoEntry {
    /// Shared, immutable once recorded: a hit clones the `Arc` under the
    /// cache lock and verifies and replays it after releasing the lock.
    payload: Arc<MemoPayload>,
    last_used: u64,
}

struct MemoPayload {
    stats: KernelStats,
    /// Sparse post-launch memory effect: (word index, new value).
    delta: Vec<(u32, u32)>,
    /// Integrity digest of `stats` + `delta`, verified before a hit is
    /// served. A mismatched entry (bit rot, injected memo.store fault) is
    /// evicted and the launch falls back to fresh simulation, counted as a
    /// miss.
    checksum: u64,
}

/// Integrity digest of a memo entry's payload: the stats' canonical bytes,
/// so every field counts, eight to a step, and the delta, the bulk of the
/// payload, through [`wide_digest`].
fn entry_checksum(stats: &KernelStats, delta: &[(u32, u32)]) -> u64 {
    let mut h = Mix64::new(0x4528_21e6_38d0_1377);
    let bytes = wire::to_bytes(stats, 512);
    h.write_u64(bytes.len() as u64);
    for chunk in bytes.chunks(8) {
        let mut word = [0; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h.write_u64(u64::from_le_bytes(word));
    }
    let (a, b) = delta_digest(delta);
    h.write_u64(a);
    h.write_u64(b);
    h.finish()
}

/// [`wide_digest`] of a delta, one (index, value) pair to a chunk.
fn delta_digest(delta: &[(u32, u32)]) -> (u64, u64) {
    wide_digest(delta, 1, |d| d[0].0 as u64 | (d[0].1 as u64) << 32)
}

/// A context's launch memo LRU.
#[derive(Default)]
pub(crate) struct LaunchCache {
    map: HashMap<MemoKey, MemoEntry>,
    tick: u64,
}

impl LaunchCache {
    fn evict_lru(&mut self) {
        if let Some(key) = self
            .map
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| k.clone())
        {
            self.map.remove(&key);
        }
    }
}

/// Drops every launch cached in the current context.
pub fn clear_memo_cache() {
    lock_recover(&SimContext::current().cache).map.clear();
}

/// Which tier satisfied a traced launch ([`crate::launch_traced`]).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Served {
    /// Simulated fresh (cache miss, or memoization disabled).
    Simulated,
    /// Replayed from the in-process LRU memo cache.
    Memo,
    /// Replayed from the persistent disk tier
    /// ([`crate::SimConfig::disk_dir`]) and promoted back into the LRU.
    Disk,
}

impl Served {
    /// True when no simulation ran (either cache tier answered).
    pub fn from_cache(self) -> bool {
        !matches!(self, Served::Simulated)
    }
}

/// Outcome of a memo-cache probe.
pub(crate) enum MemoLookup {
    /// Memoization is off for this launch; simulate normally.
    Disabled,
    /// Cache hit (LRU or disk tier): stats returned, memory delta already
    /// re-applied.
    Hit(Box<KernelStats>, Served),
    /// Miss: simulate, then pass this token to [`memo_record`].
    Miss(MemoPending),
}

/// Token carrying the key and pre-launch memory image across the simulation.
pub(crate) struct MemoPending {
    key: MemoKey,
    pre: Vec<u32>,
}

fn memo_key(
    cfg: &GpuConfig,
    kernel: &Kernel,
    dims: LaunchDims,
    params: &[Value],
    mem: &DeviceMemory,
    mode: u8,
) -> MemoKey {
    let mut h = Mix128::new();
    kernel.name.hash(&mut h);
    kernel.code.hash(&mut h);
    h.write_u32(kernel.regs_per_thread);
    h.write_u32(kernel.smem_bytes);
    h.write_u32(kernel.num_params as u32);
    let kernel_hash = h.finish128();
    let mut h = Mix64::new(0xa409_3822_299f_31d0);
    cfg.hash_fields(&mut h);
    let config = h.finish();
    let mut h = Mix64::new(0x082e_fa98_ec4e_6c89);
    for v in params {
        h.write_u32(v.0);
    }
    MemoKey {
        kernel: kernel_hash,
        config,
        grid: dims.grid,
        block: dims.block,
        params: h.finish(),
        input: mem.image_digest(),
        mode,
    }
}

/// The key's mode byte: engine in bits 0–1, dedup-off in bit 3. Bit 2 (once
/// the executor) is always 0 and the layout is frozen, because the byte is
/// part of the disk tier's content address: the product configuration must
/// keep hashing as mode 0 for published entries to keep hitting.
fn mode_bits(engine: crate::launch::Engine, dedup: bool) -> u8 {
    engine as u8 | ((!dedup as u8) << 3)
}

/// Probes the memo cache for this launch. On a hit the recorded memory
/// delta is applied to `mem` and the cached stats are returned; on a miss
/// the returned token must be passed to [`memo_record`] after simulation.
///
/// `exclusive_mem` must be false when another launch in the same batch
/// shares this [`DeviceMemory`] — concurrent writers would make the
/// pre/post snapshot diff unsound, so such launches are not memoized.
pub(crate) fn memo_lookup(
    ctx: &SimContext,
    cfg: &GpuConfig,
    kernel: &Kernel,
    dims: LaunchDims,
    params: &[Value],
    mem: &DeviceMemory,
    exclusive_mem: bool,
) -> MemoLookup {
    if !ctx.config().memo || !exclusive_mem {
        return MemoLookup::Disabled;
    }
    if !ctx.faults().is_armed() {
        return memo_lookup_inner(ctx, cfg, kernel, dims, params, mem);
    }
    // Degradation contract: a memo-layer panic (injected memo.load fault)
    // costs this launch its cache probe, nothing more — it simulates fresh.
    match catch_unwind(AssertUnwindSafe(|| {
        memo_lookup_inner(ctx, cfg, kernel, dims, params, mem)
    })) {
        Ok(v) => v,
        Err(p) if fault::is_injected_payload(p.as_ref()) => MemoLookup::Disabled,
        Err(p) => resume_unwind(p),
    }
}

fn memo_lookup_inner(
    ctx: &SimContext,
    cfg: &GpuConfig,
    kernel: &Kernel,
    dims: LaunchDims,
    params: &[Value],
    mem: &DeviceMemory,
) -> MemoLookup {
    // Polled before the lock: a panic-kind fault unwinds without touching
    // the cache; a typed fault flags whatever entry we find as corrupt,
    // exercising the same eviction path as real bit rot.
    let tampered = ctx.faults().tamper(Site::MemoLoad);
    let mode = mode_bits(ctx.config().engine, ctx.config().dedup);
    let key = memo_key(cfg, kernel, dims, params, mem, mode);
    // The lock covers the map lookup and the LRU bump only; verifying and
    // replaying the payload are O(delta) and run on the shared `Arc`, so
    // concurrent probes (serve handlers, host threads) do not serialize on
    // them.
    let found = {
        let mut cache = lock_recover(&ctx.cache);
        cache.tick += 1;
        let tick = cache.tick;
        cache.map.get_mut(&key).map(|entry| {
            entry.last_used = tick;
            Arc::clone(&entry.payload)
        })
    };
    if let Some(payload) = found {
        // Verify integrity *before* applying the delta: a corrupt entry
        // must not touch memory. Evict it and fall back to simulation.
        // The disk tier is deliberately *not* probed on this path: its copy
        // of the entry was written by the same record that produced the
        // corrupt one, so it is equally suspect — resimulating is the
        // conservative recovery, and the re-record republishes cleanly.
        if tampered || entry_checksum(&payload.stats, &payload.delta) != payload.checksum {
            // Evict only the payload that failed: a concurrent launch may
            // already have re-recorded the key with a clean one.
            let mut cache = lock_recover(&ctx.cache);
            if cache
                .map
                .get(&key)
                .is_some_and(|e| Arc::ptr_eq(&e.payload, &payload))
            {
                cache.map.remove(&key);
            }
            drop(cache);
            return memo_miss(ctx, key, mem);
        }
        apply_delta(mem, &payload.delta);
        ctx.metrics.memo.hits.fetch_add(1, Relaxed);
        return MemoLookup::Hit(Box::new(payload.stats.clone()), Served::Memo);
    }
    // LRU miss: probe the persistent tier (when enabled). A verified disk
    // entry is promoted back into the LRU — with a checksum recomputed
    // here, so a tampered file can never seed a "trusted" in-memory entry —
    // and served exactly like an LRU hit.
    if let Some(dir) = &ctx.config().disk_dir {
        if let Some((stats, delta)) = disk::load(ctx, dir, disk_digest(&key)) {
            let checksum = entry_checksum(&stats, &delta);
            apply_delta(mem, &delta);
            memo_insert(
                ctx,
                key,
                MemoPayload {
                    stats: stats.clone(),
                    delta,
                    checksum,
                },
            );
            return MemoLookup::Hit(Box::new(stats), Served::Disk);
        }
    }
    memo_miss(ctx, key, mem)
}

/// Replays a recorded memory effect.
fn apply_delta(mem: &DeviceMemory, delta: &[(u32, u32)]) {
    for &(idx, val) in delta {
        mem.write(idx * 4, Value(val));
    }
}

/// Counts a miss and copies the pre-launch image [`memo_record`] will diff
/// against — the only path that snapshots; a hit is identified from the
/// image digest alone.
fn memo_miss(ctx: &SimContext, key: MemoKey, mem: &DeviceMemory) -> MemoLookup {
    ctx.metrics.memo.misses.fetch_add(1, Relaxed);
    MemoLookup::Miss(MemoPending {
        key,
        pre: mem.snapshot_words(),
    })
}

/// Inserts an entry, evicting least-recently-used ones at capacity.
fn memo_insert(ctx: &SimContext, key: MemoKey, payload: MemoPayload) {
    let cap = ctx.config().memo_cap;
    let mut cache = lock_recover(&ctx.cache);
    cache.tick += 1;
    let tick = cache.tick;
    while cache.map.len() >= cap {
        cache.evict_lru();
    }
    cache.map.insert(
        key,
        MemoEntry {
            payload: Arc::new(payload),
            last_used: tick,
        },
    );
}

/// The disk tier's content address for a launch: the same 128-bit digest
/// family as every other memo hash, fed with the full [`MemoKey`] (kernel
/// content, config, geometry, params, memory image, mode). Stable across
/// processes — [`Mix128`] has no per-process state — which is what makes
/// the on-disk cache shareable by whole tuner fleets.
fn disk_digest(key: &MemoKey) -> (u64, u64) {
    let mut h = Mix128::new();
    key.hash(&mut h);
    h.finish128()
}

/// Records a simulated launch: diffs the pre-launch snapshot against the
/// current memory image and inserts the (stats, delta, checksum) entry,
/// evicting the least-recently-used entry when the cache is full.
pub(crate) fn memo_record(
    ctx: &SimContext,
    pending: MemoPending,
    mem: &DeviceMemory,
    stats: &KernelStats,
) {
    if !ctx.faults().is_armed() {
        return memo_record_inner(ctx, pending, mem, stats, false);
    }
    // A memo-store panic costs this launch its cache entry, nothing more;
    // a typed memo.store fault records a *corrupted* checksum, which the
    // next lookup of this key detects and evicts.
    match catch_unwind(AssertUnwindSafe(|| {
        let corrupt = ctx.faults().tamper(Site::MemoStore);
        memo_record_inner(ctx, pending, mem, stats, corrupt)
    })) {
        Ok(()) => {}
        Err(p) if fault::is_injected_payload(p.as_ref()) => {}
        Err(p) => resume_unwind(p),
    }
}

fn memo_record_inner(
    ctx: &SimContext,
    pending: MemoPending,
    mem: &DeviceMemory,
    stats: &KernelStats,
    corrupt: bool,
) {
    let post = mem.snapshot_words();
    debug_assert_eq!(pending.pre.len(), post.len());
    let delta: Vec<(u32, u32)> = pending
        .pre
        .iter()
        .zip(&post)
        .enumerate()
        .filter(|(_, (a, b))| a != b)
        .map(|(i, (_, &b))| (i as u32, b))
        .collect();
    let checksum = entry_checksum(stats, &delta) ^ ((corrupt as u64) * 0xdead_beef);
    // Spill to the persistent tier on insert, outside the cache lock (file
    // I/O must not serialize concurrent probes). A store whose in-memory
    // entry was tampered (`corrupt`) skips the spill — publishing a clean
    // copy of an entry the next probe is about to distrust would let the
    // disk tier mask the very corruption the fault is injecting.
    if !corrupt {
        if let Some(dir) = &ctx.config().disk_dir {
            disk::publish(ctx, dir, disk_digest(&pending.key), stats, &delta);
        }
    }
    memo_insert(
        ctx,
        pending.key,
        MemoPayload {
            stats: stats.clone(),
            delta,
            checksum,
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::{SmStats, StallReason};
    use g80_isa::builder::KernelBuilder;
    use g80_isa::InstClass;

    fn k(name: &str) -> Kernel {
        let mut b = KernelBuilder::new(name);
        let p = b.param();
        let tid = b.tid_x();
        let byte = b.shl(tid, 2u32);
        let a = b.iadd(byte, p);
        let v = b.ld_global(a, 0);
        let w = b.fmul(v, 2.0f32);
        b.st_global(a, 0, w);
        b.build()
    }

    #[test]
    fn registry_shares_by_content_not_identity() {
        let a = k("a");
        let b = a.clone();
        let ia = kernel_info(&a);
        let ib = kernel_info(&b);
        assert!(Arc::ptr_eq(&ia, &ib), "identical code must share an entry");
        assert!(ia.dedup_eligible);
        assert_eq!(ia.decoded.len(), a.code.len());
    }

    #[test]
    fn registry_distinguishes_different_code() {
        let a = k("a");
        let mut bld = KernelBuilder::new("b");
        let p = bld.param();
        let tid = bld.tid_x();
        let byte = bld.shl(tid, 2u32);
        let addr = bld.iadd(byte, p);
        bld.st_global(addr, 0, tid);
        let b = bld.build();
        assert!(!Arc::ptr_eq(&kernel_info(&a), &kernel_info(&b)));
    }

    /// Disk-tier addresses hash the mode byte, so its layout may not move:
    /// product = 0, oracle and dedup-off keep the bits they always had.
    #[test]
    fn mode_byte_layout_is_frozen() {
        use crate::launch::Engine;
        assert_eq!(mode_bits(Engine::Predecoded, true), 0);
        assert_eq!(mode_bits(Engine::Reference, true), 1);
        assert_eq!(mode_bits(Engine::Predecoded, false), 8);
        assert_eq!(mode_bits(Engine::Reference, false), 9);
    }

    fn key_dims() -> LaunchDims {
        LaunchDims {
            grid: (4, 2),
            block: (32, 2, 1),
        }
    }

    fn key_image() -> DeviceMemory {
        let mut mem = DeviceMemory::new(1024);
        for i in 0..256 {
            mem.write(i * 4, Value(i.wrapping_mul(2_654_435_761)));
        }
        mem.const_bank = vec![1, 2, 3];
        mem.tex_binding = Some((0, 512));
        mem
    }

    fn key_of(cfg: &GpuConfig, dims: LaunchDims, params: &[Value], mem: &DeviceMemory) -> MemoKey {
        memo_key(cfg, &k("key"), dims, params, mem, 0)
    }

    /// Two launches that agree in everything — on two distinct memory
    /// objects — are one key; one bit of difference anywhere is another.
    #[test]
    fn key_covers_kernel_geometry_params_image_and_mode() {
        let cfg = GpuConfig::geforce_8800_gtx();
        let params = [Value(64), Value(128)];
        let base = key_of(&cfg, key_dims(), &params, &key_image());
        assert!(base == key_of(&cfg, key_dims(), &params, &key_image()));

        let differs = |what: &str, other: MemoKey| assert!(base != other, "{what} not in the key");
        let mem = key_image();
        mem.write(40, Value(mem.read(40).0 ^ 1));
        differs("global word", key_of(&cfg, key_dims(), &params, &mem));
        let mut mem = key_image();
        mem.const_bank[2] ^= 1;
        differs("constant word", key_of(&cfg, key_dims(), &params, &mem));
        let mut mem = key_image();
        mem.tex_binding = Some((0, 513));
        differs("texture binding", key_of(&cfg, key_dims(), &params, &mem));
        let flipped = [Value(64), Value(129)];
        differs("param", key_of(&cfg, key_dims(), &flipped, &key_image()));
        let mut dims = key_dims();
        dims.grid.1 ^= 1;
        differs("grid", key_of(&cfg, dims, &params, &key_image()));
        let mut dims = key_dims();
        dims.block.2 ^= 2;
        differs("block", key_of(&cfg, dims, &params, &key_image()));

        let key =
            |kernel: &Kernel, mode| memo_key(&cfg, kernel, key_dims(), &params, &key_image(), mode);
        differs("mode", key(&k("key"), 8));
        differs("kernel name", key(&k("kez"), 0));
        differs("kernel regs", key(&k("key").with_forced_regs(63), 0));
        let mut kernel = k("key");
        kernel.smem_bytes ^= 4;
        differs("kernel smem", key(&kernel, 0));
        let mut kernel = k("key");
        kernel.num_params ^= 1;
        differs("kernel param count", key(&kernel, 0));
        let mut kernel = k("key");
        kernel.code.swap(0, 1);
        differs("kernel code", key(&kernel, 0));
    }

    /// One tweak per `GpuConfig` field, each the smallest change the type
    /// allows. `hash_fields` destructures exhaustively, so a new field
    /// cannot be left out of the key; this list pins that each one that is
    /// in it really moves the key.
    #[test]
    fn key_covers_every_config_field() {
        type Tweak = (&'static str, fn(&mut GpuConfig));
        fn next(f: &mut f64) {
            *f = f64::from_bits(f.to_bits() ^ 1);
        }
        let tweaks: [Tweak; 29] = [
            ("num_sms", |c| c.num_sms ^= 1),
            ("sps_per_sm", |c| c.sps_per_sm ^= 1),
            ("sfus_per_sm", |c| c.sfus_per_sm ^= 1),
            ("clock_ghz", |c| next(&mut c.clock_ghz)),
            ("warp_size", |c| c.warp_size ^= 1),
            ("max_threads_per_sm", |c| c.max_threads_per_sm ^= 1),
            ("max_blocks_per_sm", |c| c.max_blocks_per_sm ^= 1),
            ("max_threads_per_block", |c| c.max_threads_per_block ^= 1),
            ("registers_per_sm", |c| c.registers_per_sm ^= 1),
            ("smem_per_sm", |c| c.smem_per_sm ^= 1),
            ("smem_banks", |c| c.smem_banks ^= 1),
            ("const_mem_bytes", |c| c.const_mem_bytes ^= 1),
            ("const_cache_bytes", |c| c.const_cache_bytes ^= 1),
            ("tex_cache_bytes", |c| c.tex_cache_bytes ^= 1),
            ("tex_line_bytes", |c| c.tex_line_bytes ^= 1),
            ("issue_cycles", |c| c.issue_cycles ^= 1),
            ("sfu_issue_cycles", |c| c.sfu_issue_cycles ^= 1),
            ("imul_issue_cycles", |c| c.imul_issue_cycles ^= 1),
            ("alu_latency", |c| c.alu_latency ^= 1),
            ("sfu_latency", |c| c.sfu_latency ^= 1),
            ("smem_latency", |c| c.smem_latency ^= 1),
            ("const_hit_latency", |c| c.const_hit_latency ^= 1),
            ("tex_hit_latency", |c| c.tex_hit_latency ^= 1),
            ("global_latency", |c| c.global_latency ^= 1),
            ("barrier_latency", |c| c.barrier_latency ^= 1),
            ("dram_gbps", |c| next(&mut c.dram_gbps)),
            ("coalesced_txn_bytes", |c| c.coalesced_txn_bytes ^= 1),
            ("uncoalesced_txn_bytes", |c| c.uncoalesced_txn_bytes ^= 1),
            ("combine_duplicates", |c| c.combine_duplicates ^= true),
        ];
        let base_cfg = GpuConfig::geforce_8800_gtx();
        let params = [Value(64), Value(128)];
        let mem = key_image();
        let base = key_of(&base_cfg, key_dims(), &params, &mem);
        let mut seen = std::collections::HashSet::new();
        for (field, tweak) in tweaks {
            let mut cfg = base_cfg.clone();
            tweak(&mut cfg);
            assert!(cfg != base_cfg, "{field}: tweak changed nothing");
            let key = key_of(&cfg, key_dims(), &params, &mem);
            assert!(key != base, "{field} not in the key");
            assert!(
                seen.insert(key.config),
                "{field} collides with another field"
            );
        }
        // Two u32 fields trading values is a different machine too.
        let mut cfg = base_cfg.clone();
        std::mem::swap(&mut cfg.num_sms, &mut cfg.sps_per_sm);
        assert!(key_of(&cfg, key_dims(), &params, &mem) != base);
    }

    /// A corrupted entry (the typed `memo.store` fault's effect) is caught
    /// by its checksum and evicted before one word of its delta is applied.
    #[test]
    fn corrupt_entry_is_evicted_before_a_word_is_applied() {
        let ctx = SimContext::new(Default::default());
        let cfg = GpuConfig::geforce_8800_gtx();
        let kernel = k("corrupt_entry_probe");
        let params = [Value(0)];
        let dims = key_dims();
        // Record "the launch doubled every word" under a corrupt checksum.
        let recorded = key_image();
        let pre = recorded.snapshot_words();
        let pending = MemoPending {
            key: memo_key(&cfg, &kernel, dims, &params, &recorded, 0),
            pre: pre.clone(),
        };
        for (i, w) in pre.iter().enumerate() {
            recorded.write(i as u32 * 4, Value(w.wrapping_mul(2) | 1));
        }
        let stats = KernelStats::merge("corrupt_entry_probe", &cfg, Vec::new(), 4, 0, 64, 1, 8);
        memo_record_inner(&ctx, pending, &recorded, &stats, true);

        // The probe must not be a hit and must leave the image alone.
        let probe = key_image();
        let found = memo_lookup(&ctx, &cfg, &kernel, dims, &params, &probe, true);
        assert!(!matches!(found, MemoLookup::Hit(..)), "a corrupt entry hit");
        assert_eq!(probe.snapshot_words(), pre, "a corrupt delta was applied");
        // ...and the entry is gone: a second probe cannot find it either.
        let again = memo_lookup(&ctx, &cfg, &kernel, dims, &params, &probe, true);
        assert!(!matches!(again, MemoLookup::Hit(..)));
        assert_eq!(probe.snapshot_words(), pre);
    }

    /// The entry checksum is a function of the payload alone and moves with
    /// any bit of the stats or of any delta pair (index or value).
    #[test]
    fn entry_checksum_covers_stats_and_every_delta_pair() {
        let cfg = GpuConfig::geforce_8800_gtx();
        let mut sm = SmStats {
            cycles: 900,
            global_bytes: 4096,
            ..Default::default()
        };
        sm.count_inst(InstClass::Fma, 32, 2);
        sm.count_inst(InstClass::Exit, 32, 0);
        sm.stall(StallReason::Memory, 41);
        let stats = KernelStats::merge("checksum_probe", &cfg, vec![sm], 4, 0, 64, 1, 8);
        let delta: Vec<(u32, u32)> = (0..2304).map(|i| (i + 100, i * 7)).collect();
        let base = entry_checksum(&stats, &delta);
        assert_eq!(base, entry_checksum(&stats.clone(), &delta.clone()));
        for at in [0, 1, 1151, 2303] {
            let mut d = delta.clone();
            d[at].1 ^= 1 << 31;
            assert_ne!(base, entry_checksum(&stats, &d), "value {at}");
            let mut d = delta.clone();
            d[at].0 ^= 1;
            assert_ne!(base, entry_checksum(&stats, &d), "index {at}");
        }
        assert_ne!(base, entry_checksum(&stats, &delta[..2303]));
        // Every bit of the stats' canonical bytes: a flip that still decodes
        // is another payload, machine constants and map entries included.
        let bytes = wire::to_bytes(&stats, 256);
        let mut decoded = 0;
        for bit in 0..bytes.len() * 8 {
            let mut bent = bytes.clone();
            bent[bit / 8] ^= 1 << (bit % 8);
            if let Some(other) = wire::from_bytes::<KernelStats>(&bent) {
                decoded += 1;
                assert_ne!(base, entry_checksum(&other, &delta), "stats bit {bit}");
            }
        }
        assert!(
            decoded > bytes.len() * 6,
            "{decoded} of {} flips decoded",
            bytes.len() * 8
        );
    }

    /// The property [`lane_step`] exists for: flipping a chunk's top bit does
    /// not produce one state difference the next chunk could cancel — the
    /// difference in `hi` varies with the state.
    #[test]
    fn lane_step_top_bit_difference_depends_on_the_state() {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let (state, chunk) = ((next(), next()), next());
            let (a, b) = (lane_step(state, chunk), lane_step(state, chunk ^ 1 << 63));
            assert_eq!(a.0 ^ b.0, 1 << 63, "an odd multiplier keeps the top bit");
            seen.insert(a.1 ^ b.1);
        }
        assert!(seen.len() > 9_900, "{} distinct differences", seen.len());
    }

    /// Pair `i` and pair `i + 4` share a lane of the delta digest. A value's
    /// top bit (bit 63 of its chunk) together with any bit of the lane's next
    /// pair must still change both halves — under an xor-linear lane step it
    /// cancels against one fixed bit of the next pair (see [`lane_step`]).
    #[test]
    fn delta_differences_in_one_lane_do_not_cancel() {
        let cfg = GpuConfig::geforce_8800_gtx();
        let stats = KernelStats::merge("checksum_probe", &cfg, Vec::new(), 4, 0, 64, 1, 8);
        let delta: Vec<(u32, u32)> = (0..2304).map(|i| (i + 100, i * 7)).collect();
        let base = delta_digest(&delta);
        let sum = entry_checksum(&stats, &delta);
        let flip = |pair: &mut (u32, u32), bit: u32| {
            pair.0 ^= (1u64 << bit) as u32;
            pair.1 ^= ((1u64 << bit) >> 32) as u32;
        };
        for at in [0, 1, 2, 3, 1150, 2299] {
            for p in 0..64 {
                for q in 0..64 {
                    let mut d = delta.clone();
                    flip(&mut d[at], p);
                    flip(&mut d[at + 4], q);
                    let what = format!("pair {at} bit {p}, pair {} bit {q}", at + 4);
                    let got = delta_digest(&d);
                    assert_ne!(base.0, got.0, "{what}: first half");
                    assert_ne!(base.1, got.1, "{what}: second half");
                    assert_ne!(sum, entry_checksum(&stats, &d), "{what}");
                }
            }
        }
    }

    /// Both lanes of the two-lane hasher are [`Mix64`]s.
    #[test]
    fn mix64_is_order_sensitive() {
        let digest = |words: [u32; 2]| {
            let mut h = Mix128::new();
            h.write_u32(words[0]);
            h.write_u32(words[1]);
            h.finish128()
        };
        let (a, b) = (digest([1, 2]), digest([2, 1]));
        assert_ne!(a.0, b.0);
        assert_ne!(a.1, b.1);
    }
}
