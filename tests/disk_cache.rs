//! Persistent disk-tier integration: publish → replay bit-identity across a
//! cold LRU, concurrent publish/load on a shared directory, corruption and
//! version-skew eviction (truncate, bit flip, header rewrite), and
//! byte-budget compaction.
//!
//! The disk/memo toggles are process-global, so everything runs inside one
//! `#[test]` (parallel test threads would race the toggles).

use g80::isa::builder::KernelBuilder;
use g80::isa::{Kernel, Value};
use g80::sim::{
    clear_memo_cache, launch, memo_counters, set_dedup, set_disk_cache, set_disk_cache_cap,
    set_memo, set_memo_capacity, Dedup, DeviceMemory, GpuConfig, KernelStats, LaunchDims, Memo,
};
use std::fs;
use std::path::{Path, PathBuf};

const N: u32 = 256;
const TPB: u32 = 64;

/// `out[i] = in[i] * mult + salt` — the constants land in the instruction
/// stream, so each pair is distinct kernel content (fresh memo identity).
fn scale_kernel(mult: u32, salt: u32) -> Kernel {
    let mut b = KernelBuilder::new("disk_scale");
    let xs = b.param();
    let ys = b.param();
    let tid = b.tid_x();
    let ntid = b.ntid_x();
    let cta = b.ctaid_x();
    let i = b.imad(cta, ntid, tid);
    let byte = b.shl(i, 2u32);
    let xa = b.iadd(byte, xs);
    let v = b.ld_global(xa, 0);
    let w = b.imul(v, mult);
    let w = b.iadd(w, salt);
    let ya = b.iadd(byte, ys);
    b.st_global(ya, 0, w);
    b.build()
}

fn fresh_input() -> DeviceMemory {
    let mem = DeviceMemory::new(2 * N * 4);
    for i in 0..N {
        mem.write(i * 4, Value::from_u32(i.wrapping_mul(2654435761)));
    }
    mem
}

fn run(cfg: &GpuConfig, k: &Kernel, mem: &DeviceMemory) -> KernelStats {
    launch(
        cfg,
        k,
        LaunchDims {
            grid: (N / TPB, 1),
            block: (TPB, 1, 1),
        },
        &[Value::from_u32(0), Value::from_u32(N * 4)],
        mem,
    )
    .expect("launch")
}

fn output_words(mem: &DeviceMemory) -> Vec<u32> {
    (0..N).map(|i| mem.read((N + i) * 4).as_u32()).collect()
}

fn assert_stats_identical(label: &str, a: &KernelStats, b: &KernelStats) {
    assert_eq!(a.cycles, b.cycles, "{label}: cycles");
    assert_eq!(a.elapsed.to_bits(), b.elapsed.to_bits(), "{label}: elapsed");
    assert_eq!(
        a.warp_instructions, b.warp_instructions,
        "{label}: warp_instructions"
    );
    assert_eq!(
        a.thread_instructions, b.thread_instructions,
        "{label}: thread_instructions"
    );
    assert_eq!(a.by_class, b.by_class, "{label}: by_class");
    assert_eq!(a.stall_cycles, b.stall_cycles, "{label}: stall_cycles");
    assert_eq!(a.global_bytes, b.global_bytes, "{label}: global_bytes");
    assert_eq!(
        a.blocks_executed, b.blocks_executed,
        "{label}: blocks_executed"
    );
}

/// A fresh private cache directory for one scenario.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("g80-disk-test-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
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

#[test]
fn disk_tier_end_to_end() {
    // Exact counter assertions don't survive an armed fault injector (the
    // chaos CI arms memo.disk itself), and the tier never probes while the
    // memo is globally off (the G80_SIM_MEMO=off CI arm).
    if g80::sim::fault::armed() || g80::sim::memo() == Memo::Off {
        return;
    }
    set_memo(Memo::On);
    set_dedup(Dedup::Off);
    set_memo_capacity(256);
    set_disk_cache_cap(1 << 30);
    let cfg = GpuConfig::geforce_8800_gtx();

    replay_is_bit_identical(&cfg);
    concurrent_publish_and_load(&cfg);
    corruption_is_evicted_and_resimulated(&cfg);
    version_skew_is_rejected(&cfg);
    compaction_enforces_byte_budget(&cfg);

    set_disk_cache(None);
}

/// Cold simulate → publish; clear the LRU; the replay must come back from
/// disk bit-identical (stats and memory effects), count as a disk hit (not
/// a miss), and promote into the LRU so the next repeat is an LRU hit.
fn replay_is_bit_identical(cfg: &GpuConfig) {
    let dir = scratch_dir("replay");
    set_disk_cache(Some(dir.clone()));
    clear_memo_cache();

    let k = scale_kernel(3, 7);
    let m1 = fresh_input();
    let c0 = memo_counters();
    let cold = run(cfg, &k, &m1);
    let out1 = output_words(&m1);
    let c1 = memo_counters();
    assert_eq!(c1.misses - c0.misses, 1, "cold launch must simulate");
    assert_eq!(
        entry_files(&dir).len(),
        1,
        "the recorded miss must spill exactly one entry"
    );

    clear_memo_cache(); // kill the in-process tier; only the disk remains
    let m2 = fresh_input();
    let warm = run(cfg, &k, &m2);
    let c2 = memo_counters();
    assert_eq!(c2.disk_hits - c1.disk_hits, 1, "replay must hit the disk");
    assert_eq!(
        c2.misses, c1.misses,
        "a disk hit is not a miss (nothing simulated)"
    );
    assert_eq!(c2.hits, c1.hits, "a disk hit is not an LRU hit");
    assert_stats_identical("disk replay", &cold, &warm);
    assert_eq!(out1, output_words(&m2), "replayed memory delta drifted");

    // Promotion: the disk hit re-seeded the LRU, so the next repeat is
    // served in-process without touching the disk.
    let m3 = fresh_input();
    let third = run(cfg, &k, &m3);
    let c3 = memo_counters();
    assert_eq!(c3.hits - c2.hits, 1, "promoted entry must hit the LRU");
    assert_eq!(c3.disk_hits, c2.disk_hits);
    assert_stats_identical("promoted replay", &cold, &third);

    set_disk_cache(None);
    let _ = fs::remove_dir_all(&dir);
}

/// Many threads hammer one shared directory with a capacity-1 LRU (so
/// nearly every lookup falls through to the disk and every simulation
/// publishes). The atomic temp-file + rename protocol must never let a
/// reader observe a torn entry: every launch returns stats bit-identical
/// to a clean reference.
fn concurrent_publish_and_load(cfg: &GpuConfig) {
    // References simulated with the whole cache machinery off.
    set_memo(Memo::Off);
    let kernels: Vec<Kernel> = (0..4).map(|i| scale_kernel(5 + i, 11 + i)).collect();
    let refs: Vec<(KernelStats, Vec<u32>)> = kernels
        .iter()
        .map(|k| {
            let m = fresh_input();
            let s = run(cfg, k, &m);
            (s, output_words(&m))
        })
        .collect();

    let dir = scratch_dir("concurrent");
    set_memo(Memo::On);
    set_memo_capacity(1);
    set_disk_cache(Some(dir.clone()));
    clear_memo_cache();
    let c0 = memo_counters();

    std::thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(|| {
                for _ in 0..3 {
                    for (k, (rs, ro)) in kernels.iter().zip(&refs) {
                        let m = fresh_input();
                        let stats = run(cfg, k, &m);
                        assert_stats_identical("concurrent", rs, &stats);
                        assert_eq!(*ro, output_words(&m), "concurrent memory drift");
                    }
                }
            });
        }
    });

    let c1 = memo_counters();
    assert!(
        c1.disk_hits > c0.disk_hits,
        "capacity-1 LRU over 8 threads must be served by the disk: {c1:?}"
    );
    assert_eq!(c1.disk_evictions, c0.disk_evictions, "no entry was corrupt");
    assert_eq!(
        entry_files(&dir).len(),
        kernels.len(),
        "one entry per distinct launch, no leaked temp files"
    );

    set_memo_capacity(256);
    set_disk_cache(None);
    let _ = fs::remove_dir_all(&dir);
}

/// Truncation and bit rot reuse the evict-and-resimulate contract: the bad
/// file is removed, the launch simulates fresh (bit-identical), and the
/// re-record publishes a clean replacement.
fn corruption_is_evicted_and_resimulated(cfg: &GpuConfig) {
    let dir = scratch_dir("corrupt");
    set_disk_cache(Some(dir.clone()));
    clear_memo_cache();

    let k = scale_kernel(17, 23);
    let m1 = fresh_input();
    let cold = run(cfg, &k, &m1);
    let out1 = output_words(&m1);

    for (label, mutate) in [
        (
            "truncation",
            (|bytes: &mut Vec<u8>| bytes.truncate(bytes.len() / 2)) as fn(&mut Vec<u8>),
        ),
        (
            "bit flip",
            (|bytes: &mut Vec<u8>| {
                let last = bytes.len() - 1;
                bytes[last] ^= 0x01;
            }) as fn(&mut Vec<u8>),
        ),
    ] {
        let files = entry_files(&dir);
        assert_eq!(files.len(), 1, "{label}: expected one entry to damage");
        let mut bytes = fs::read(&files[0]).unwrap();
        mutate(&mut bytes);
        fs::write(&files[0], &bytes).unwrap();

        clear_memo_cache();
        let c0 = memo_counters();
        let m = fresh_input();
        let again = run(cfg, &k, &m);
        let c1 = memo_counters();
        assert_eq!(
            c1.disk_evictions - c0.disk_evictions,
            1,
            "{label}: damaged entry must be evicted"
        );
        assert_eq!(
            c1.misses - c0.misses,
            1,
            "{label}: the launch must resimulate"
        );
        assert_eq!(c1.disk_hits, c0.disk_hits, "{label}: must not hit");
        assert_stats_identical(label, &cold, &again);
        assert_eq!(out1, output_words(&m), "{label}: memory drift");
        // The re-record republished a clean entry for the next round.
        assert_eq!(entry_files(&dir).len(), 1, "{label}: no clean republish");
    }

    set_disk_cache(None);
    let _ = fs::remove_dir_all(&dir);
}

/// An entry written by a different serializer version must be rejected (and
/// evicted) even though its checksum is internally consistent.
fn version_skew_is_rejected(cfg: &GpuConfig) {
    let dir = scratch_dir("skew");
    set_disk_cache(Some(dir.clone()));
    clear_memo_cache();

    let k = scale_kernel(29, 31);
    let m1 = fresh_input();
    let cold = run(cfg, &k, &m1);

    // Rewrite the version field (bytes 4..8, after the 4-byte magic)
    // without touching the payload or its checksum: once to a future
    // version, once to 1 — what commits before the in-crate SFU wrote, whose
    // MRI deltas hold libm trig and must not be served.
    let skews: [fn(u32) -> u32; 2] = [|current| current + 1, |_| 1];
    for skew in skews {
        let files = entry_files(&dir);
        assert_eq!(files.len(), 1, "one clean entry before each rewrite");
        let mut bytes = fs::read(&files[0]).unwrap();
        let current = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        let skewed = skew(current);
        assert_ne!(skewed, current, "format version must have moved past v1");
        bytes[4..8].copy_from_slice(&skewed.to_le_bytes());
        fs::write(&files[0], &bytes).unwrap();

        clear_memo_cache();
        let c0 = memo_counters();
        let m = fresh_input();
        let again = run(cfg, &k, &m);
        let c1 = memo_counters();
        assert_eq!(
            c1.disk_evictions - c0.disk_evictions,
            1,
            "v{skewed} entry must be evicted"
        );
        assert_eq!(
            c1.disk_misses - c0.disk_misses,
            1,
            "v{skewed} entry must count as a miss"
        );
        assert_eq!(c1.disk_hits, c0.disk_hits, "v{skewed} entry must not hit");
        assert_stats_identical("version skew", &cold, &again);
    }

    set_disk_cache(None);
    let _ = fs::remove_dir_all(&dir);
}

/// A tiny byte budget forces compaction: after publishing many entries the
/// directory's total size fits the cap and the oldest entries are gone.
fn compaction_enforces_byte_budget(cfg: &GpuConfig) {
    let dir = scratch_dir("compact");
    set_disk_cache(Some(dir.clone()));
    clear_memo_cache();

    // Size one entry, then budget roughly four of them.
    let probe = scale_kernel(37, 41);
    run(cfg, &probe, &fresh_input());
    let entry_bytes = total_bytes(&dir);
    assert!(entry_bytes > 0);
    let cap = entry_bytes * 4;
    set_disk_cache_cap(cap);

    let c0 = memo_counters();
    for i in 0..12u32 {
        let k = scale_kernel(43, 1000 + i);
        run(cfg, &k, &fresh_input());
    }
    let c1 = memo_counters();
    assert!(
        total_bytes(&dir) <= cap,
        "compaction must keep the directory within {cap} bytes, found {}",
        total_bytes(&dir)
    );
    assert!(
        c1.disk_evictions > c0.disk_evictions,
        "publishing 12 entries into a 4-entry budget must evict: {c1:?}"
    );
    let survivors = entry_files(&dir).len() as u64;
    assert!(
        survivors >= 1 && survivors * entry_bytes <= cap,
        "{survivors} survivors of ~{entry_bytes} bytes exceed the {cap}-byte cap"
    );

    set_disk_cache_cap(1 << 30);
    set_disk_cache(None);
    let _ = fs::remove_dir_all(&dir);
}
