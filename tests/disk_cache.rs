//! Persistent disk-tier integration: publish → replay bit-identity across a
//! cold LRU, concurrent publish/load on a shared directory, corruption and
//! version-skew eviction (truncate, bit flip, header rewrite), and
//! byte-budget compaction.
//!
//! Each case owns a directory and builds its contexts on it; "a fresh
//! process on a warm directory" is a second context on the same directory.

use g80::isa::Kernel;
use g80::sim::{memo_counters, DeviceMemory, KernelStats, MemoCounters, SimConfig, SimContext};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

mod common;
use common::{assert_stats_identical, Scale};

const SCALE: Scale = Scale { n: 256 };

/// Each (mult, salt) pair is distinct kernel content (fresh memo identity).
fn scale_kernel(mult: u32, salt: u32) -> Kernel {
    Scale::kernel("disk_scale", mult, salt)
}

/// One scenario's private cache directory, removed when the case ends. `None`
/// under an armed fault injector: exact counter assertions don't survive
/// it (the chaos CI arms memo.disk itself).
struct Dir(PathBuf);

impl Dir {
    fn new(tag: &str) -> Option<Dir> {
        (!g80::sim::fault::armed()).then(|| Dir(common::scratch_dir(tag)))
    }

    /// A fresh context on this directory: cold LRU, zero counters, dedup
    /// off, a memo that holds every launch of a case unless `cfg` says
    /// otherwise.
    fn context(&self, cfg: SimConfig) -> Arc<SimContext> {
        SimContext::new(SimConfig {
            dedup: false,
            disk_dir: Some(self.0.clone()),
            ..cfg
        })
    }

    /// One launch in a fresh context on this directory — what a new process
    /// would see — with the context's counters afterwards.
    fn fresh_run(&self, k: &Kernel, mem: &DeviceMemory) -> (KernelStats, MemoCounters) {
        self.context(SimConfig::default())
            .enter(|| (SCALE.run(k, mem), memo_counters()))
    }
}

impl Drop for Dir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Every entry file under the two-level sharded cache directory.
fn entry_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(shards) = fs::read_dir(dir) else {
        return out;
    };
    for shard in shards.flatten() {
        let Ok(files) = fs::read_dir(shard.path()) else {
            continue;
        };
        for f in files.flatten() {
            if f.metadata().is_ok_and(|m| m.is_file()) {
                out.push(f.path());
            }
        }
    }
    out.sort();
    out
}

fn total_bytes(dir: &Path) -> u64 {
    entry_files(dir)
        .iter()
        .filter_map(|p| fs::metadata(p).ok())
        .map(|m| m.len())
        .sum()
}

/// Cold simulate → publish; in a second context on the directory the replay
/// must come back from disk bit-identical (stats and memory effects), count
/// as a disk hit (not a miss), and promote into the LRU so the next repeat
/// is an LRU hit.
#[test]
fn replay_is_bit_identical() {
    let Some(dir) = Dir::new("replay") else {
        return;
    };
    let k = scale_kernel(3, 7);
    let m1 = SCALE.input();
    let (cold, c) = dir.fresh_run(&k, &m1);
    let out1 = SCALE.output(&m1);
    assert_eq!(c.misses, 1, "cold launch must simulate");
    assert_eq!(
        entry_files(&dir.0).len(),
        1,
        "the recorded miss must spill exactly one entry"
    );

    dir.context(SimConfig::default()).enter(|| {
        let m2 = SCALE.input();
        let warm = SCALE.run(&k, &m2);
        let c = memo_counters();
        assert_eq!(c.disk_hits, 1, "replay must hit the disk");
        assert_eq!(c.misses, 0, "a disk hit is not a miss (nothing simulated)");
        assert_eq!(c.hits, 0, "a disk hit is not an LRU hit");
        assert_stats_identical("disk replay", &cold, &warm);
        assert_eq!(out1, SCALE.output(&m2), "replayed memory delta drifted");

        // Promotion: the disk hit re-seeded the LRU, so the next repeat is
        // served in-process without touching the disk.
        let m3 = SCALE.input();
        let third = SCALE.run(&k, &m3);
        let c = memo_counters();
        assert_eq!(c.hits, 1, "promoted entry must hit the LRU");
        assert_eq!(c.disk_hits, 1);
        assert_stats_identical("promoted replay", &cold, &third);
    });
}

/// Many threads hammer one shared directory with a capacity-1 LRU (so
/// nearly every lookup falls through to the disk and every simulation
/// publishes). The atomic temp-file + rename protocol must never let a
/// reader observe a torn entry: every launch returns stats bit-identical
/// to a clean reference.
#[test]
fn concurrent_publish_and_load() {
    let Some(dir) = Dir::new("concurrent") else {
        return;
    };
    // References simulated with the whole cache machinery off.
    let uncached = SimContext::new(SimConfig {
        memo: false,
        dedup: false,
        ..SimConfig::default()
    });
    let kernels: Vec<Kernel> = (0..4).map(|i| scale_kernel(5 + i, 11 + i)).collect();
    let refs: Vec<(KernelStats, Vec<u32>)> = kernels
        .iter()
        .map(|k| {
            let m = SCALE.input();
            let s = uncached.enter(|| SCALE.run(k, &m));
            (s, SCALE.output(&m))
        })
        .collect();

    let ctx = dir.context(SimConfig {
        memo_cap: 1,
        ..SimConfig::default()
    });
    std::thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(|| {
                ctx.enter(|| {
                    for _ in 0..3 {
                        for (k, (rs, ro)) in kernels.iter().zip(&refs) {
                            let m = SCALE.input();
                            let stats = SCALE.run(k, &m);
                            assert_stats_identical("concurrent", rs, &stats);
                            assert_eq!(*ro, SCALE.output(&m), "concurrent memory drift");
                        }
                    }
                })
            });
        }
    });

    let c = ctx.enter(memo_counters);
    assert!(
        c.disk_hits > 0,
        "capacity-1 LRU over 8 threads must be served by the disk: {c:?}"
    );
    assert_eq!(c.disk_evictions, 0, "no entry was corrupt");
    assert_eq!(
        entry_files(&dir.0).len(),
        kernels.len(),
        "one entry per distinct launch, no leaked temp files"
    );
}

/// Damages the directory's single entry with `damage`, then relaunches in a
/// fresh context: the bad file must be evicted, the launch must resimulate
/// bit-identically to `cold`, and the re-record must publish a clean
/// replacement.
fn assert_evicted_and_resimulated(
    label: &str,
    dir: &Dir,
    k: &Kernel,
    cold: &KernelStats,
    damage: impl Fn(&mut Vec<u8>),
) -> Vec<u32> {
    let files = entry_files(&dir.0);
    assert_eq!(files.len(), 1, "{label}: expected one entry to damage");
    let mut bytes = fs::read(&files[0]).unwrap();
    damage(&mut bytes);
    fs::write(&files[0], &bytes).unwrap();

    let m = SCALE.input();
    let (again, c) = dir.fresh_run(k, &m);
    assert_eq!(c.disk_evictions, 1, "{label}: entry must be evicted");
    assert_eq!(c.disk_misses, 1, "{label}: entry must count as a miss");
    assert_eq!(c.misses, 1, "{label}: the launch must resimulate");
    assert_eq!(c.disk_hits, 0, "{label}: must not hit");
    assert_stats_identical(label, cold, &again);
    assert_eq!(entry_files(&dir.0).len(), 1, "{label}: no clean republish");
    SCALE.output(&m)
}

/// Truncation and bit rot reuse the evict-and-resimulate contract.
#[test]
fn corruption_is_evicted_and_resimulated() {
    let Some(dir) = Dir::new("corrupt") else {
        return;
    };
    let k = scale_kernel(17, 23);
    let m1 = SCALE.input();
    let (cold, _) = dir.fresh_run(&k, &m1);
    let out1 = SCALE.output(&m1);

    let truncate = |bytes: &mut Vec<u8>| bytes.truncate(bytes.len() / 2);
    let out = assert_evicted_and_resimulated("truncation", &dir, &k, &cold, truncate);
    assert_eq!(out1, out, "truncation: memory drift");
    let flip = |bytes: &mut Vec<u8>| *bytes.last_mut().unwrap() ^= 0x01;
    let out = assert_evicted_and_resimulated("bit flip", &dir, &k, &cold, flip);
    assert_eq!(out1, out, "bit flip: memory drift");
}

/// An entry written by a different serializer version must be rejected (and
/// evicted) even though its checksum is internally consistent.
#[test]
fn version_skew_is_rejected() {
    let Some(dir) = Dir::new("skew") else {
        return;
    };
    let k = scale_kernel(29, 31);
    let (cold, _) = dir.fresh_run(&k, &SCALE.input());

    // Rewrite the version field (bytes 4..8, after the 4-byte magic)
    // without touching the payload or its checksum: once to a future
    // version, once to 1 — what commits before the in-crate SFU wrote, whose
    // MRI deltas hold libm trig and must not be served.
    let skews: [fn(u32) -> u32; 2] = [|current| current + 1, |_| 1];
    for skew in skews {
        assert_evicted_and_resimulated("version skew", &dir, &k, &cold, |bytes| {
            let current = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
            let skewed = skew(current);
            assert_ne!(skewed, current, "format version must have moved past v1");
            bytes[4..8].copy_from_slice(&skewed.to_le_bytes());
        });
    }
}

/// A tiny byte budget forces compaction: after publishing many entries the
/// directory's total size fits the cap and the oldest entries are gone.
#[test]
fn compaction_enforces_byte_budget() {
    let Some(dir) = Dir::new("compact") else {
        return;
    };
    // Size one entry, then budget roughly four of them.
    dir.fresh_run(&scale_kernel(37, 41), &SCALE.input());
    let entry_bytes = total_bytes(&dir.0);
    assert!(entry_bytes > 0);
    let cap = entry_bytes * 4;

    let c = dir
        .context(SimConfig {
            disk_cap: cap,
            ..SimConfig::default()
        })
        .enter(|| {
            for i in 0..12u32 {
                SCALE.run(&scale_kernel(43, 1000 + i), &SCALE.input());
            }
            memo_counters()
        });
    assert!(
        total_bytes(&dir.0) <= cap,
        "compaction must keep the directory within {cap} bytes, found {}",
        total_bytes(&dir.0)
    );
    assert!(
        c.disk_evictions > 0,
        "publishing 12 entries into a 4-entry budget must evict: {c:?}"
    );
    let survivors = entry_files(&dir.0).len() as u64;
    assert!(
        survivors >= 1 && survivors * entry_bytes <= cap,
        "{survivors} survivors of ~{entry_bytes} bytes exceed the {cap}-byte cap"
    );
}
