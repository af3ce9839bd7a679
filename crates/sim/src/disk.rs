//! Persistent disk tier of the launch memo: a sharded, content-addressed
//! cache directory under the in-process LRU.
//!
//! The paper's methodology is sweep-heavy — hundreds of kernel
//! configurations re-simulated per figure — and the PR 3 memo LRU dies with
//! the process, so every process restart and every CI run re-pays full
//! simulation cost. This tier makes the memo survive: entries are keyed by
//! the same 128-bit content/config/params/memory-image digest as the LRU,
//! serialized as checksummed, versioned files in a sharded directory
//! (`<dir>/<2-hex-shard>/<32-hex-digest>`). A lookup that misses the LRU
//! probes the disk; a hit promotes the entry back into the LRU and replays
//! its memory delta, bit-identical to a fresh simulation. A recorded miss
//! spills its entry to disk (atomic temp-file + rename publish, so
//! multi-process tuner fleets sharing one directory never observe a torn
//! entry).
//!
//! Corrupt, truncated, or version-skewed entries reuse PR 4's
//! evict-and-resimulate contract: the file is removed, the launch simulates
//! fresh, and the re-record re-publishes a clean entry. The injectable
//! [`Site::DiskCache`] fault covers both directions (tamper the published
//! checksum / distrust the loaded entry).
//!
//! The tier is **off by default** (`G80_SIM_DISK_CACHE=<dir>` /
//! [`set_disk_cache`] enable it) and bounded: a byte budget
//! (`G80_SIM_DISK_CACHE_CAP` / [`set_disk_cache_cap`], default 1 GiB) is
//! enforced by an LRU-by-mtime compaction pass that runs after enough new
//! bytes have been published (hits touch their entry's mtime, so hot
//! entries survive).

use crate::counters::KernelStats;
use crate::fault::{self, lock_recover, Site};
use crate::memo::Mix64;
use crate::wire::{self, Dec, Enc};
use std::fs;
use std::hash::Hasher;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::SystemTime;

// ---- toggles ---------------------------------------------------------------

// 0 = unresolved (read G80_SIM_DISK_CACHE on first use), 1 = off, 2 = on
// (path in DIR_PATH).
static DIR_STATE: AtomicU8 = AtomicU8::new(0);
static DIR_PATH: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Enables (`Some(dir)`) or disables (`None`) the persistent disk tier for
/// subsequent launches, overriding `G80_SIM_DISK_CACHE`. Process-wide; the
/// directory is created lazily on first publish.
pub fn set_disk_cache(dir: Option<PathBuf>) {
    let mut path = lock_recover(&DIR_PATH);
    DIR_STATE.store(if dir.is_some() { 2 } else { 1 }, Ordering::SeqCst);
    *path = dir;
}

/// The disk-cache directory currently in effect, if the tier is enabled.
/// An empty or whitespace-only `G80_SIM_DISK_CACHE` counts as unset (CI
/// matrices pass empty strings for the disabled arms).
pub fn disk_cache_dir() -> Option<PathBuf> {
    match DIR_STATE.load(Ordering::SeqCst) {
        1 => None,
        2 => lock_recover(&DIR_PATH).clone(),
        _ => {
            let dir = std::env::var("G80_SIM_DISK_CACHE")
                .ok()
                .map(|v| v.trim().to_string())
                .filter(|v| !v.is_empty())
                .map(PathBuf::from);
            // Racing first reads resolve the same env identically.
            let mut path = lock_recover(&DIR_PATH);
            DIR_STATE.store(if dir.is_some() { 2 } else { 1 }, Ordering::SeqCst);
            path.clone_from(&dir);
            dir
        }
    }
}

/// Cheap disabled-path guard: one atomic load once resolved.
pub(crate) fn enabled() -> bool {
    match DIR_STATE.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => disk_cache_dir().is_some(),
    }
}

// 0 = unresolved (read G80_SIM_DISK_CACHE_CAP on first use).
static CAP: AtomicU64 = AtomicU64::new(0);
const DEFAULT_CAP_BYTES: u64 = 1 << 30; // 1 GiB

/// Sets the disk tier's byte budget (process-wide, min 1 byte), overriding
/// `G80_SIM_DISK_CACHE_CAP`. Enforced by the next compaction pass.
pub fn set_disk_cache_cap(bytes: u64) {
    CAP.store(bytes.max(1), Ordering::SeqCst);
}

fn cap_bytes() -> u64 {
    match CAP.load(Ordering::SeqCst) {
        0 => {
            let cap = std::env::var("G80_SIM_DISK_CACHE_CAP")
                .ok()
                .and_then(|v| v.trim().parse::<u64>().ok())
                .unwrap_or(DEFAULT_CAP_BYTES)
                .max(1);
            CAP.store(cap, Ordering::SeqCst);
            cap
        }
        v => v,
    }
}

// ---- counters --------------------------------------------------------------

static DISK_HITS: AtomicU64 = AtomicU64::new(0);
static DISK_MISSES: AtomicU64 = AtomicU64::new(0);
static DISK_EVICTIONS: AtomicU64 = AtomicU64::new(0);

pub(crate) fn counters() -> (u64, u64, u64) {
    (
        DISK_HITS.load(Ordering::Relaxed),
        DISK_MISSES.load(Ordering::Relaxed),
        DISK_EVICTIONS.load(Ordering::Relaxed),
    )
}

pub(crate) fn reset_counters() {
    DISK_HITS.store(0, Ordering::Relaxed);
    DISK_MISSES.store(0, Ordering::Relaxed);
    DISK_EVICTIONS.store(0, Ordering::Relaxed);
}

// ---- on-disk format --------------------------------------------------------

/// File layout (all integers little-endian):
///
/// ```text
/// magic    b"G80M"                      4 bytes
/// version  FORMAT_VERSION               u32
/// key      digest echo                  u64 + u64
/// len      payload byte length          u64
/// checksum Mix64 over the payload       u64
/// payload  serialized stats + delta     len bytes
/// ```
///
/// The key echo rejects files that were renamed or copied under a foreign
/// digest; the checksum rejects bit rot and truncation; the version rejects
/// entries written by an incompatible serializer (any change to the payload
/// encoding below must bump [`FORMAT_VERSION`]) or by an incompatible
/// machine: v1 entries hold memory deltas computed with the host libm's
/// `sinf`/`cosf`, v2 is the in-crate SFU of `g80_isa::exec::eval_sfu`.
const MAGIC: &[u8; 4] = b"G80M";
pub(crate) const FORMAT_VERSION: u32 = 2;
const HEADER_LEN: usize = 4 + 4 + 8 + 8 + 8 + 8;
const CHECKSUM_SEED: u64 = 0x452f_6a88_38d0_13f7;

fn checksum(payload: &[u8]) -> u64 {
    let mut h = Mix64::new(CHECKSUM_SEED);
    h.write(payload);
    h.finish()
}

/// Serializes a memo entry's payload: the canonical [`wire::encode_stats`]
/// bytes followed by the sparse write-delta. Any change to either part
/// must bump [`FORMAT_VERSION`].
fn encode_payload(stats: &KernelStats, delta: &[(u32, u32)]) -> Vec<u8> {
    let mut e = Enc::with_capacity(512 + delta.len() * 8);
    wire::encode_stats(&mut e, stats);
    e.u64(delta.len() as u64);
    for &(i, w) in delta {
        e.u32(i);
        e.u32(w);
    }
    e.0
}

fn decode_payload(payload: &[u8]) -> Option<(KernelStats, Vec<(u32, u32)>)> {
    let mut d = Dec(payload);
    let stats = wire::decode_stats(&mut d)?;
    let n_delta = d.u64()?;
    let n_delta = usize::try_from(n_delta).ok()?;
    if payload.len() < n_delta.checked_mul(8)? {
        return None; // length field cannot exceed the bytes that carry it
    }
    let mut delta = Vec::with_capacity(n_delta);
    for _ in 0..n_delta {
        let i = d.u32()?;
        let w = d.u32()?;
        delta.push((i, w));
    }
    if !d.0.is_empty() {
        return None; // trailing garbage
    }
    Some((stats, delta))
}

fn encode_entry(digest: (u64, u64), payload: &[u8], sum: u64) -> Vec<u8> {
    let mut e = Enc(Vec::with_capacity(HEADER_LEN + payload.len()));
    e.0.extend_from_slice(MAGIC);
    e.u32(FORMAT_VERSION);
    e.u64(digest.0);
    e.u64(digest.1);
    e.u64(payload.len() as u64);
    e.u64(sum);
    e.0.extend_from_slice(payload);
    e.0
}

/// Validates an entry file's header + checksum and decodes the payload.
fn decode_entry(digest: (u64, u64), bytes: &[u8]) -> Option<(KernelStats, Vec<(u32, u32)>)> {
    let mut d = Dec(bytes);
    if d.take(4)? != MAGIC || d.u32()? != FORMAT_VERSION {
        return None;
    }
    if (d.u64()?, d.u64()?) != digest {
        return None;
    }
    let len = usize::try_from(d.u64()?).ok()?;
    let sum = d.u64()?;
    if d.0.len() != len || checksum(d.0) != sum {
        return None;
    }
    decode_payload(d.0)
}

// ---- paths -----------------------------------------------------------------

/// `<dir>/<first 2 hex of digest>/<32-hex digest>`: two-level sharding keeps
/// per-directory entry counts manageable for large fleets.
fn entry_path(dir: &Path, digest: (u64, u64)) -> PathBuf {
    let hex = format!("{:016x}{:016x}", digest.0, digest.1);
    dir.join(&hex[..2]).join(hex)
}

// ---- load / publish --------------------------------------------------------

pub(crate) enum DiskLoad {
    /// Tier disabled (or the file vanished between probe and read).
    Disabled,
    /// No usable entry; the caller simulates and records (which re-publishes).
    Miss,
    /// A verified entry: stats plus the sparse memory delta to replay.
    Hit(Box<KernelStats>, Vec<(u32, u32)>),
}

/// Probes the disk tier for `digest`. Corrupt, truncated, version-skewed,
/// or foreign-key entries are evicted (file removed) and reported as a
/// miss; a verified hit touches the entry's mtime so compaction sees it as
/// recently used.
pub(crate) fn load(digest: (u64, u64)) -> DiskLoad {
    let Some(dir) = disk_cache_dir() else {
        return DiskLoad::Disabled;
    };
    // Polled per load: a typed fault distrusts whatever the file holds
    // (same observable outcome as bit rot); a panic-kind fault unwinds and
    // is absorbed at the memo boundary (the probe degrades to a miss).
    let tampered = fault::tamper(Site::DiskCache);
    let path = entry_path(&dir, digest);
    let bytes = match fs::read(&path) {
        Ok(b) => b,
        Err(_) => {
            DISK_MISSES.fetch_add(1, Ordering::Relaxed);
            return DiskLoad::Miss;
        }
    };
    let decoded = if tampered {
        None
    } else {
        decode_entry(digest, &bytes)
    };
    match decoded {
        Some((stats, delta)) => {
            if let Ok(f) = fs::OpenOptions::new().write(true).open(&path) {
                let _ = f.set_modified(SystemTime::now());
            }
            DISK_HITS.fetch_add(1, Ordering::Relaxed);
            DiskLoad::Hit(Box::new(stats), delta)
        }
        None => {
            // Evict-and-resimulate: same contract as a corrupt LRU entry.
            let _ = fs::remove_file(&path);
            DISK_EVICTIONS.fetch_add(1, Ordering::Relaxed);
            DISK_MISSES.fetch_add(1, Ordering::Relaxed);
            DiskLoad::Miss
        }
    }
}

static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Publishes an entry for `digest`. Concurrent writers (threads or
/// processes) are safe: the entry is written to a unique temp file in the
/// shard directory and moved into place with `rename`, which is atomic on
/// the same filesystem — readers see either the old complete entry or the
/// new complete entry, never a torn write. Losing a publish race is
/// harmless (both sides wrote identical bytes, modulo mtime).
pub(crate) fn publish(digest: (u64, u64), stats: &KernelStats, delta: &[(u32, u32)]) {
    let Some(dir) = disk_cache_dir() else {
        return;
    };
    // A typed fault corrupts the published checksum — a later load of this
    // entry detects the mismatch, evicts the file, and resimulates.
    let tampered = fault::tamper(Site::DiskCache);
    let payload = encode_payload(stats, delta);
    let sum = checksum(&payload) ^ ((tampered as u64) * 0xdead_beef);
    let bytes = encode_entry(digest, &payload, sum);
    let path = entry_path(&dir, digest);
    let shard = path.parent().expect("entry path has a shard parent");
    if fs::create_dir_all(shard).is_err() {
        return; // unwritable cache dir: the tier silently degrades
    }
    let tmp = shard.join(format!(
        ".tmp-{}-{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    if fs::write(&tmp, &bytes).is_err() {
        let _ = fs::remove_file(&tmp);
        return;
    }
    if fs::rename(&tmp, &path).is_err() {
        let _ = fs::remove_file(&tmp);
        return;
    }
    let published = PUBLISHED_BYTES.fetch_add(bytes.len() as u64, Ordering::Relaxed);
    let cap = cap_bytes();
    if published + bytes.len() as u64 >= compaction_trigger(cap) {
        PUBLISHED_BYTES.store(0, Ordering::Relaxed);
        compact(&dir, cap);
    }
}

// ---- compaction ------------------------------------------------------------

/// Bytes published (by this process) since the last compaction scan.
static PUBLISHED_BYTES: AtomicU64 = AtomicU64::new(0);

/// A directory scan costs one `stat` per entry, so it runs only after a
/// meaningful fraction of the budget has been published since the last one.
fn compaction_trigger(cap: u64) -> u64 {
    (cap / 8).max(1)
}

/// Enforces the byte budget: scans the shard directories and removes
/// oldest-mtime entries until the total fits. Ties (filesystems with coarse
/// mtime granularity) break by path so concurrent compactors converge on
/// the same victims. In-flight temp files are skipped — they are renamed
/// promptly, and a racing `remove_file` on an already-renamed entry is a
/// harmless no-op.
fn compact(dir: &Path, cap: u64) {
    let mut entries: Vec<(SystemTime, PathBuf, u64)> = Vec::new();
    let mut total: u64 = 0;
    let Ok(shards) = fs::read_dir(dir) else {
        return;
    };
    for shard in shards.flatten() {
        let Ok(files) = fs::read_dir(shard.path()) else {
            continue;
        };
        for f in files.flatten() {
            if f.file_name().to_string_lossy().starts_with(".tmp-") {
                continue;
            }
            let Ok(meta) = f.metadata() else { continue };
            if !meta.is_file() {
                continue;
            }
            let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
            total += meta.len();
            entries.push((mtime, f.path(), meta.len()));
        }
    }
    if total <= cap {
        return;
    }
    entries.sort_unstable_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
    for (_, path, len) in entries {
        if total <= cap {
            break;
        }
        if fs::remove_file(&path).is_ok() {
            DISK_EVICTIONS.fetch_add(1, Ordering::Relaxed);
            total -= len;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;
    use crate::counters::{SmStats, StallReason};
    use g80_isa::InstClass;

    fn sample_stats() -> KernelStats {
        let cfg = GpuConfig::geforce_8800_gtx();
        let mut sm = SmStats {
            cycles: 1234,
            warp_instructions: 99,
            thread_instructions: 3168,
            flops: 64,
            global_bytes: 4096,
            ..Default::default()
        };
        sm.by_class.insert(InstClass::Fma, 7);
        sm.by_class.insert(InstClass::Exit, 1);
        sm.stall_cycles.insert(StallReason::Memory, 41);
        sm.stall_cycles.insert(StallReason::Drain, 3);
        KernelStats::merge("roundtrip", &cfg, vec![sm], 10, 256, 128, 3, 8)
    }

    #[test]
    fn payload_roundtrips_bit_identically() {
        let stats = sample_stats();
        let delta = vec![(0u32, 17u32), (99, 0xdead_beef), (u32::MAX, 1)];
        let payload = encode_payload(&stats, &delta);
        let (back, delta_back) = decode_payload(&payload).expect("roundtrip");
        assert_eq!(delta, delta_back);
        assert_eq!(stats.name, back.name);
        assert_eq!(stats.cycles, back.cycles);
        assert_eq!(stats.elapsed.to_bits(), back.elapsed.to_bits());
        assert_eq!(stats.by_class, back.by_class);
        assert_eq!(stats.stall_cycles, back.stall_cycles);
        assert_eq!(
            stats.max_simultaneous_threads,
            back.max_simultaneous_threads
        );
        assert_eq!(stats.clock_ghz.to_bits(), back.clock_ghz.to_bits());
        assert_eq!(stats.warp_size, back.warp_size);
        // Serialization is canonical: re-encoding the decoded entry gives
        // the same bytes (HashMaps are written in sorted order).
        assert_eq!(payload, encode_payload(&back, &delta_back));
    }

    #[test]
    fn entry_rejects_corruption_truncation_and_skew() {
        let stats = sample_stats();
        let delta = vec![(5u32, 6u32)];
        let digest = (0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210);
        let payload = encode_payload(&stats, &delta);
        let good = encode_entry(digest, &payload, checksum(&payload));
        assert!(decode_entry(digest, &good).is_some());
        // Foreign digest.
        assert!(decode_entry((1, 2), &good).is_none());
        // Truncation.
        assert!(decode_entry(digest, &good[..good.len() - 1]).is_none());
        assert!(decode_entry(digest, &good[..HEADER_LEN - 1]).is_none());
        // Single bit flip anywhere in the payload.
        let mut flipped = good.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert!(decode_entry(digest, &flipped).is_none());
        // Version skew.
        let mut skewed = good.clone();
        skewed[4..8].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        assert!(decode_entry(digest, &skewed).is_none());
    }

    #[test]
    fn entry_path_shards_by_digest_prefix() {
        let p = entry_path(Path::new("/c"), (0xab00_0000_0000_0001, 2));
        assert_eq!(p, Path::new("/c/ab/ab000000000000010000000000000002"));
    }
}
