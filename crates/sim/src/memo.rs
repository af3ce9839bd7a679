//! Launch memoization and the process-wide predecode registry.
//!
//! The paper's methodology is a *search*: tuner fleets and sweeps re-run
//! launches that are bit-identical to ones already simulated. The memo
//! cache makes the repeat free. A launch is keyed by everything that can
//! influence its result — kernel content, launch geometry, machine config,
//! parameter values, and a digest of the full pre-launch device-memory
//! image (global words, constant bank, texture binding) — plus the
//! context's SM-engine seam and dedup mode, so oracle and A/B runs never
//! share entries with the product's: one 128-bit [`launch_digest`], which
//! is also the entry's disk-tier address. A hit replays the launch's
//! recorded effect: the cached [`KernelStats`] is returned and the recorded
//! sparse memory delta is re-applied, leaving memory bit-identical to a
//! real simulation.
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
use crate::digest::{code_hash, entry_checksum, launch_digest};
use crate::disk;
use crate::guard::lock_recover;
use crate::memory::DeviceMemory;
use crate::sm::LaunchDims;
use g80_isa::{analyze_taint, DecodedKernel, Kernel, Value};
use std::collections::HashMap;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Mutex, OnceLock};

// ---- predecode registry ----------------------------------------------------

/// Everything the launch path derives from a kernel's content, computed once
/// per process per distinct kernel code.
pub struct KernelInfo {
    /// Micro-op table for the engine.
    pub decoded: DecodedKernel,
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
    // Decode and analyze *outside* the registry lock: an unwind here must
    // leave the registry untouched. Two racing first-decoders both compute;
    // the loser's insert simply overwrites an identical entry.
    let taint = analyze_taint(&kernel.code);
    let dedup_eligible = taint.timing_data_independent()
        && !taint.has_atomic
        && !taint.ctaid_cached_addr
        && !taint.uses_tex
        && !kernel.code.is_empty();
    let info = Arc::new(KernelInfo {
        decoded: DecodedKernel::new(kernel),
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

struct MemoEntry {
    /// Shared, immutable once recorded: a hit clones the `Arc` under the
    /// cache lock and verifies and replays it after releasing the lock.
    payload: Arc<MemoPayload>,
    last_used: u64,
}

pub(crate) struct MemoPayload {
    pub(crate) stats: KernelStats,
    /// Sparse post-launch memory effect: (word index, new value).
    pub(crate) delta: Vec<(u32, u32)>,
    /// Integrity digest of `stats` + `delta`, verified before a hit is
    /// served. A mismatched entry (bit rot) is evicted and the launch falls
    /// back to fresh simulation, counted as a miss. The disk tier stores and
    /// verifies the same value.
    pub(crate) checksum: u64,
}

/// A context's launch memo LRU.
#[derive(Default)]
pub(crate) struct LaunchCache {
    /// Keyed by [`launch_digest`], the disk tier's address too.
    map: HashMap<(u64, u64), MemoEntry>,
    tick: u64,
}

impl LaunchCache {
    fn evict_lru(&mut self) {
        if let Some(key) = self
            .map
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(&k, _)| k)
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
    key: (u64, u64),
    pre: Vec<u32>,
}

/// The bulk of what [`launch_digest`] digests, in bytes: the kernel's code, its
/// parameters and the memory image's global and constant words
/// ([`DeviceMemory::image_digest`]). The fixed-size rest (name, geometry,
/// config, mode) is left out.
fn key_bytes(kernel: &Kernel, params: &[Value], mem: &DeviceMemory) -> u64 {
    let code = kernel.code.len() * std::mem::size_of::<g80_isa::Inst>();
    let words = params.len() + mem.const_bank.len();
    (code + 4 * words) as u64 + u64::from(mem.len_bytes())
}

/// The key's mode byte: an SM-engine seam in bit 0, dedup-off in bit 3.
/// Bits 1–2 (once the engine's high bit and the executor) are always 0 and
/// the layout is frozen: the byte is part of the disk tier's content
/// address, and the product must keep hashing as mode 0.
fn mode_bits(sm_engine: bool, dedup: bool) -> u8 {
    sm_engine as u8 | ((!dedup as u8) << 3)
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
    let mode = mode_bits(ctx.sm_engine.is_some(), ctx.config().dedup);
    let key = launch_digest(cfg, kernel, dims, params, mem, mode);
    let hashed = key_bytes(kernel, params, mem);
    ctx.metrics.work.bytes_hashed.fetch_add(hashed, Relaxed);
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
        if entry_checksum(&payload.stats, &payload.delta) != payload.checksum {
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
    // LRU miss: probe the persistent tier (when enabled). A disk entry
    // whose stored checksum matches its decoded payload is promoted back
    // into the LRU under that checksum and served exactly like an LRU hit.
    if let Some(dir) = &ctx.config().disk_dir {
        if let Some(payload) = disk::load(ctx, dir, key) {
            apply_delta(mem, &payload.delta);
            let stats = payload.stats.clone();
            memo_insert(ctx, key, payload);
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
fn memo_miss(ctx: &SimContext, key: (u64, u64), mem: &DeviceMemory) -> MemoLookup {
    ctx.metrics.memo.misses.fetch_add(1, Relaxed);
    MemoLookup::Miss(MemoPending {
        key,
        pre: mem.snapshot_words(),
    })
}

/// Inserts an entry, evicting least-recently-used ones at capacity.
fn memo_insert(ctx: &SimContext, key: (u64, u64), payload: MemoPayload) {
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

/// Records a simulated launch: diffs the pre-launch snapshot against the
/// current memory image and inserts the (stats, delta, checksum) entry,
/// evicting the least-recently-used entry when the cache is full.
pub(crate) fn memo_record(
    ctx: &SimContext,
    pending: MemoPending,
    mem: &DeviceMemory,
    stats: &KernelStats,
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
    let checksum = entry_checksum(stats, &delta);
    // Spill to the persistent tier on insert, outside the cache lock (file
    // I/O must not serialize concurrent probes).
    if let Some(dir) = &ctx.config().disk_dir {
        disk::publish(ctx, dir, pending.key, stats, &delta, checksum);
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
    use crate::digest::delta_digest;
    use crate::wire;
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
        assert_eq!(mode_bits(false, true), 0);
        assert_eq!(mode_bits(true, true), 1);
        assert_eq!(mode_bits(false, false), 8);
        assert_eq!(mode_bits(true, false), 9);
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

    fn key_of(
        cfg: &GpuConfig,
        dims: LaunchDims,
        params: &[Value],
        mem: &DeviceMemory,
    ) -> (u64, u64) {
        launch_digest(cfg, &k("key"), dims, params, mem, 0)
    }

    /// The disk tier's address of one fixed launch, recorded before the
    /// launch key and its hashers moved into [`crate::digest`]: a change to
    /// how a launch is digested orphans every existing cache directory, so
    /// it must show up here.
    #[test]
    fn launch_digest_is_pinned() {
        let cfg = GpuConfig::geforce_8800_gtx();
        let key = |mode| {
            let params = [Value(64), Value(128)];
            launch_digest(&cfg, &k("key"), key_dims(), &params, &key_image(), mode)
        };
        assert_eq!(key(0), (0x7ee8_8b5d_6314_2f3c, 0x00c5_7d1a_f5f7_b8e7));
        assert_eq!(key(8), (0x45b2_caca_7b31_6b59, 0xd954_aa37_2167_d123));
        assert_eq!(
            key_image().image_digest(),
            (0xce87_cc3c_cb34_fba5, 0xedd7_27af_4bbb_f8c5)
        );
        assert_eq!(
            code_hash(&k("key").code),
            (11_811_367_887_786_058_200, 10_711_152_432_429_847_797)
        );
    }

    /// Two launches that agree in everything — on two distinct memory
    /// objects — are one key; one bit of difference anywhere is another.
    #[test]
    fn key_covers_kernel_geometry_params_image_and_mode() {
        let cfg = GpuConfig::geforce_8800_gtx();
        let params = [Value(64), Value(128)];
        let base = key_of(&cfg, key_dims(), &params, &key_image());
        assert_eq!(base, key_of(&cfg, key_dims(), &params, &key_image()));

        let differs = |what: &str, other| assert_ne!(base, other, "{what} not in the key");
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

        let key = |kernel: &Kernel, mode| {
            launch_digest(&cfg, kernel, key_dims(), &params, &key_image(), mode)
        };
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
    /// in it really moves the key, to 29 distinct digests.
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
            assert_ne!(key, base, "{field} not in the key");
            assert!(seen.insert(key), "{field} collides with another field");
        }
        assert_eq!(seen.len(), 29);
        // Two u32 fields trading values is a different machine too.
        let mut cfg = base_cfg.clone();
        std::mem::swap(&mut cfg.num_sms, &mut cfg.sps_per_sm);
        assert_ne!(key_of(&cfg, key_dims(), &params, &mem), base);
    }

    /// Flips the stored checksum of every LRU entry in place, as bit rot
    /// would; the stats and delta stay as recorded.
    fn corrupt_every_entry(ctx: &SimContext) {
        for entry in lock_recover(&ctx.cache).map.values_mut() {
            let p = &entry.payload;
            entry.payload = Arc::new(MemoPayload {
                stats: p.stats.clone(),
                delta: p.delta.clone(),
                checksum: p.checksum ^ 1,
            });
        }
    }

    /// A corrupted entry is caught by its checksum and evicted before one
    /// word of its delta is applied.
    #[test]
    fn corrupt_entry_is_evicted_before_a_word_is_applied() {
        let ctx = SimContext::new(Default::default());
        let cfg = GpuConfig::geforce_8800_gtx();
        let kernel = k("corrupt_entry_probe");
        let params = [Value(0)];
        let dims = key_dims();
        // Record "the launch doubled every word", then corrupt the entry.
        let recorded = key_image();
        let pre = recorded.snapshot_words();
        let pending = MemoPending {
            key: launch_digest(&cfg, &kernel, dims, &params, &recorded, 0),
            pre: pre.clone(),
        };
        for (i, w) in pre.iter().enumerate() {
            recorded.write(i as u32 * 4, Value(w.wrapping_mul(2) | 1));
        }
        let stats = KernelStats::merge("corrupt_entry_probe", &cfg, Vec::new(), 4, 0, 64, 1, 8);
        memo_record(&ctx, pending, &recorded, &stats);
        corrupt_every_entry(&ctx);

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

    /// A corrupt entry found by a real launch: the probe evicts it and counts
    /// a miss, the launch resimulates to the same stats and memory, and the
    /// re-record is clean — the next launch hits, and the file it
    /// republished to the disk tier verifies.
    #[test]
    fn memo_corruption_is_detected_and_resimulated() {
        let dir = std::env::temp_dir().join(format!("g80-memo-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ctx = SimContext::new(crate::SimConfig {
            disk_dir: Some(dir.clone()),
            ..Default::default()
        });
        let cfg = GpuConfig::geforce_8800_gtx();
        let kernel = k("memo_corruption_probe");
        let params = [Value(0)];
        let dims = LaunchDims {
            grid: (1, 1),
            block: (32, 1, 1),
        };
        let run = || {
            let mem = key_image();
            let stats = ctx
                .enter(|| crate::launch(&cfg, &kernel, dims, &params, &mem))
                .expect("launch");
            (wire::to_bytes(&stats, 512), mem.snapshot_words())
        };
        let first = run();
        corrupt_every_entry(&ctx);
        let second = run();
        let counts = ctx.enter(crate::memo_counters);
        assert_eq!(
            (counts.hits, counts.misses),
            (0, 2),
            "the corrupt entry hit"
        );
        assert_eq!(second, first, "the resimulation differs");
        assert_eq!(run(), first);
        assert_eq!(
            ctx.enter(crate::memo_counters).hits,
            1,
            "the re-record missed"
        );
        let key = launch_digest(&cfg, &kernel, dims, &params, &key_image(), 0);
        let file = disk::load(&ctx, &dir, key).expect("the republished file verifies");
        assert_eq!(wire::to_bytes(&file.stats, 512), first.0);
        let _ = std::fs::remove_dir_all(&dir);
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
}
