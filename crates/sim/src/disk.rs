//! Persistent disk tier of the launch memo: a sharded, content-addressed
//! cache directory under the in-process LRU.
//!
//! The paper's methodology is sweep-heavy — hundreds of kernel
//! configurations re-simulated per figure — and the in-process memo LRU dies
//! with the process, so every process restart and every CI run would re-pay
//! full simulation cost. This tier makes the memo survive: entries are keyed by
//! the same 128-bit content/config/params/memory-image digest as the LRU,
//! serialized as checksummed, versioned files in a sharded directory
//! (`<dir>/<2-hex-shard>/<32-hex-digest>`). A lookup that misses the LRU
//! probes the disk; a hit promotes the entry back into the LRU and replays
//! its memory delta, bit-identical to a fresh simulation. A recorded miss
//! spills its entry to disk (atomic temp-file + rename publish, so
//! multi-process tuner fleets sharing one directory never observe a torn
//! entry).
//!
//! Corrupt, truncated, or version-skewed entries follow the memo's
//! evict-and-resimulate contract: the file is removed, the launch simulates
//! fresh, and the re-record re-publishes a clean entry.
//!
//! The tier is **off by default** ([`crate::SimConfig::disk_dir`] enables
//! it) and bounded: a byte budget ([`crate::SimConfig::disk_cap`], default
//! 1 GiB) is enforced by an LRU-by-mtime compaction pass that runs after a
//! context has published enough new bytes (hits touch their entry's mtime,
//! so hot entries survive). Contexts, like processes, may share a directory.

use crate::context::SimContext;
use crate::counters::KernelStats;
use crate::digest::entry_checksum;
use crate::memo::MemoPayload;
use crate::wire::{Dec, Enc, Wire};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::SystemTime;

// ---- on-disk format --------------------------------------------------------

/// File layout (all integers little-endian):
///
/// ```text
/// magic    b"G80M"                      4 bytes
/// version  FORMAT_VERSION               u32
/// key      digest echo                  u64 + u64
/// len      payload byte length          u64
/// checksum memo entry checksum           u64
/// payload  serialized stats + delta     len bytes
/// ```
///
/// The key echo rejects files that were renamed or copied under a foreign
/// digest; the length rejects truncation; the checksum, the same
/// [`entry_checksum`] of the decoded stats and delta that guards an
/// in-memory entry, rejects bit rot; the version rejects
/// entries written by an incompatible serializer (any change to the payload
/// encoding below must bump [`FORMAT_VERSION`]) or by an incompatible
/// machine: v1 entries hold memory deltas computed with the host libm's
/// `sinf`/`cosf`, v2 is the in-crate SFU of `g80_isa::eval_sfu`, and
/// v3 the NaN rule of `g80_isa::exec` (a NaN result's bits no longer depend
/// on the compiler's choice of operand order), and v4 stores the memo entry
/// checksum in place of a bytewise hash of the payload.
const MAGIC: &[u8; 4] = b"G80M";
pub(crate) const FORMAT_VERSION: u32 = 4;
const HEADER_LEN: usize = 4 + 4 + 8 + 8 + 8 + 8;

/// Serializes a memo entry's payload: the canonical [`KernelStats`] bytes
/// followed by the sparse write-delta under a u64 count. Any change to
/// either part must bump [`FORMAT_VERSION`].
fn encode_payload(stats: &KernelStats, delta: &[(u32, u32)]) -> Vec<u8> {
    let mut e = Enc::with_capacity(512 + delta.len() * 8);
    stats.put(&mut e);
    e.u64(delta.len() as u64);
    for w in delta {
        w.put(&mut e);
    }
    e.0
}

fn decode_payload(payload: &[u8]) -> Option<(KernelStats, Vec<(u32, u32)>)> {
    let mut d = Dec(payload);
    let stats = KernelStats::get(&mut d)?;
    let n_delta = d.u64()?;
    let delta = d.items(n_delta)?;
    d.is_empty().then_some((stats, delta))
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

/// Validates an entry file's header, decodes the payload and verifies its
/// checksum.
fn decode_entry(digest: (u64, u64), bytes: &[u8]) -> Option<MemoPayload> {
    let mut d = Dec(bytes);
    if d.take(4)? != MAGIC || d.u32()? != FORMAT_VERSION {
        return None;
    }
    if (d.u64()?, d.u64()?) != digest {
        return None;
    }
    let len = usize::try_from(d.u64()?).ok()?;
    let checksum = d.u64()?;
    if d.0.len() != len {
        return None;
    }
    let (stats, delta) = decode_payload(d.0)?;
    (entry_checksum(&stats, &delta) == checksum).then_some(MemoPayload {
        stats,
        delta,
        checksum,
    })
}

// ---- paths -----------------------------------------------------------------

/// `<dir>/<first 2 hex of digest>/<32-hex digest>`: two-level sharding keeps
/// per-directory entry counts manageable for large fleets.
fn entry_path(dir: &Path, digest: (u64, u64)) -> PathBuf {
    let hex = format!("{:016x}{:016x}", digest.0, digest.1);
    dir.join(&hex[..2]).join(hex)
}

// ---- load / publish --------------------------------------------------------

/// Probes the disk tier at `dir` for `digest`: a verified entry, checksum
/// included, or `None` (the caller simulates and records, which
/// re-publishes). Corrupt, truncated, version-skewed, or foreign-key entries
/// are evicted (file removed) and reported as a miss; a verified hit
/// touches the entry's mtime so compaction sees it as recently used.
pub(crate) fn load(ctx: &SimContext, dir: &Path, digest: (u64, u64)) -> Option<MemoPayload> {
    let tally = &ctx.metrics.memo;
    let path = entry_path(dir, digest);
    let Ok(bytes) = fs::read(&path) else {
        tally.disk_misses.fetch_add(1, Relaxed);
        return None;
    };
    match decode_entry(digest, &bytes) {
        Some(payload) => {
            if let Ok(f) = fs::OpenOptions::new().write(true).open(&path) {
                let _ = f.set_modified(SystemTime::now());
            }
            tally.disk_hits.fetch_add(1, Relaxed);
            Some(payload)
        }
        None => {
            // Evict-and-resimulate: same contract as a corrupt LRU entry.
            let _ = fs::remove_file(&path);
            tally.disk_evictions.fetch_add(1, Relaxed);
            tally.disk_misses.fetch_add(1, Relaxed);
            None
        }
    }
}

/// Temp-file names are unique per process, whichever context publishes.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Publishes an entry for `digest` under `dir`, stamped with its
/// [`entry_checksum`] `sum`. Concurrent writers (threads, contexts or
/// processes) are safe: the entry is written to a unique temp file in the
/// shard directory and moved into place with `rename`, which is atomic on
/// the same filesystem — readers see either the old complete entry or the
/// new complete entry, never a torn write. Losing a publish race is
/// harmless (both sides wrote identical bytes, modulo mtime).
pub(crate) fn publish(
    ctx: &SimContext,
    dir: &Path,
    digest: (u64, u64),
    stats: &KernelStats,
    delta: &[(u32, u32)],
    sum: u64,
) {
    let payload = encode_payload(stats, delta);
    let bytes = encode_entry(digest, &payload, sum);
    let path = entry_path(dir, digest);
    let shard = path.parent().expect("entry path has a shard parent");
    if fs::create_dir_all(shard).is_err() {
        return; // unwritable cache dir: the tier silently degrades
    }
    let tmp = shard.join(format!(
        ".tmp-{}-{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Relaxed)
    ));
    if fs::write(&tmp, &bytes).is_err() {
        let _ = fs::remove_file(&tmp);
        return;
    }
    if fs::rename(&tmp, &path).is_err() {
        let _ = fs::remove_file(&tmp);
        return;
    }
    // A directory scan costs one `stat` per entry, so it runs only after
    // this context has published a meaningful fraction of the budget since
    // its last one.
    let published = ctx.disk_published.fetch_add(bytes.len() as u64, Relaxed);
    let cap = ctx.config().disk_cap;
    if published + bytes.len() as u64 >= (cap / 8).max(1) {
        ctx.disk_published.store(0, Relaxed);
        let evicted = compact(dir, cap);
        ctx.metrics.memo.disk_evictions.fetch_add(evicted, Relaxed);
    }
}

// ---- compaction ------------------------------------------------------------

/// Enforces the byte budget: scans the shard directories and removes
/// oldest-mtime entries until the total fits, returning how many. Ties (filesystems with coarse
/// mtime granularity) break by path so concurrent compactors converge on
/// the same victims. In-flight temp files are skipped — they are renamed
/// promptly, and a racing `remove_file` on an already-renamed entry is a
/// harmless no-op.
fn compact(dir: &Path, cap: u64) -> u64 {
    let mut entries: Vec<(SystemTime, PathBuf, u64)> = Vec::new();
    let mut total: u64 = 0;
    let Ok(shards) = fs::read_dir(dir) else {
        return 0;
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
        return 0;
    }
    let mut evicted = 0;
    entries.sort_unstable_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
    for (_, path, len) in entries {
        if total <= cap {
            break;
        }
        if fs::remove_file(&path).is_ok() {
            evicted += 1;
            total -= len;
        }
    }
    evicted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;
    use crate::counters::{SmStats, StallReason, TallyKey};
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
        sm.by_class[InstClass::Fma.index()] = 7;
        sm.by_class[InstClass::Exit.index()] = 1;
        sm.stall_cycles[StallReason::Memory.index()] = 41;
        sm.stall_cycles[StallReason::Drain.index()] = 3;
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
    fn payload_mutations_are_rejected_or_canonical() {
        let delta = vec![(0u32, 17u32), (99, 0xdead_beef)];
        crate::wire::assert_mutations_rejected(
            &encode_payload(&sample_stats(), &delta),
            decode_payload,
            |(stats, delta)| encode_payload(stats, delta),
        );
    }

    #[test]
    fn entry_rejects_corruption_truncation_and_skew() {
        let stats = sample_stats();
        let delta = vec![(5u32, 6u32)];
        let digest = (0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210);
        let sum = entry_checksum(&stats, &delta);
        let good = encode_entry(digest, &encode_payload(&stats, &delta), sum);
        let back = decode_entry(digest, &good).expect("a good entry decodes");
        assert_eq!((back.delta, back.checksum), (delta, sum));
        // Foreign digest.
        assert!(decode_entry((1, 2), &good).is_none());
        // Truncation.
        assert!(decode_entry(digest, &good[..good.len() - 1]).is_none());
        assert!(decode_entry(digest, &good[..HEADER_LEN - 1]).is_none());
        // A bit flip in the last delta value still decodes; the checksum
        // rejects it.
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
    fn entry_bytes_are_pinned() {
        let (stats, delta) = (sample_stats(), vec![(0u32, 17u32), (99, 0xdead_beef)]);
        let payload = encode_payload(&stats, &delta);
        let sum = entry_checksum(&stats, &delta);
        let entry = encode_entry((0x0123_4567_89ab_cdef, 2), &payload, sum);
        let hex: String = entry.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "4738304d04000000efcdab896745230102000000000000002901000000000000\
            46f9da6642f6f7990900000000000000726f756e6474726970d2040000000000\
            00f1726c25d6abae3e6300000000000000600c00000000000040000000000000\
            0000000000000000000000000000000000001000000000000000000000000000\
            0000000000000000000000000000000000000000000000000000000000000000\
            0000000000000000000000000000000000000000000000000000000000000000\
            0000000000000000000a00000000010000800000000300000000040000000400\
            00000000009a9999999999f53f00000000000050401000000018000000200000\
            00020000000000000007000000000000000f0000000100000000000000020000\
            0000000000290000000000000004000000030000000000000002000000000000\
            00000000001100000063000000efbeadde"
        );
    }

    #[test]
    fn entry_path_shards_by_digest_prefix() {
        let p = entry_path(Path::new("/c"), (0xab00_0000_0000_0001, 2));
        assert_eq!(p, Path::new("/c/ab/ab000000000000010000000000000002"));
    }
}
