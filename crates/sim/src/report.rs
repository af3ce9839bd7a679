//! Serializable per-launch report: stats, cache-tier provenance, and the
//! redundancy-elimination counters, in one struct.
//!
//! [`crate::launch_traced`] tells a caller *which tier* served a launch;
//! its context's [`crate::memo_counters`] tell it how the cache tiers
//! are doing overall — but before this module the two could only be
//! combined by hand (`g80-cuda`'s `Timeline` does exactly that diffing).
//! [`LaunchReport`] packages both, and serializes with the canonical
//! [`crate::wire`] codec, so the same struct a host runtime inspects
//! in-process is what the `g80-serve` daemon streams to remote tenants —
//! a client can see not just its own launch's provenance but the shared
//! cache heat its fleet (and every other tenant's) has built up.

use crate::config::GpuConfig;
use crate::context::SimContext;
use crate::counters::{KernelStats, MemoCounters, NetCounters, RowCounters};
use crate::launch::{launch_with_memo, LaunchError, LaunchSpec};
use crate::memo::Served;
use crate::memory::DeviceMemory;
use crate::sm::LaunchDims;
use crate::wire;
use g80_isa::{Kernel, Value};

/// Everything one launch reports: the simulated counters, which cache tier
/// answered, and a snapshot of its context's counters taken when the launch
/// completed.
///
/// `counters` is a *snapshot of totals*, not a per-launch delta: totals
/// are race-free under concurrent launches (a delta would attribute other
/// threads' traffic to this launch), and successive reports let a caller
/// diff for itself.
#[derive(Clone, Debug)]
pub struct LaunchReport {
    /// The launch's performance counters, bit-identical to what
    /// [`crate::launch`] returns for the same spec.
    pub stats: KernelStats,
    /// Which tier served this launch (fresh simulation, in-process memo
    /// LRU, or the persistent disk tier).
    pub served: Served,
    /// The context's [`crate::memo_counters`] observed at completion.
    pub counters: MemoCounters,
    /// The context's [`crate::row_counters`] observed at completion: how many
    /// warp-instruction executions resolved through uniform/affine lane-row
    /// shapes versus eager full-row evaluation. Like `counters`, a snapshot
    /// of totals — diff successive reports to attribute a single launch.
    pub rows: RowCounters,
    /// The context's [`crate::net_counters`] observed at completion: transport
    /// faults the serving tier survived (disconnects, frame retries, bytes
    /// re-sent, reconnect replays). All-zero for in-process launches. Like
    /// `counters`, a snapshot of totals.
    pub net: NetCounters,
}

/// Bumped on any change to [`LaunchReport`]'s byte layout (which includes
/// the embedded [`KernelStats`] layout). Version 2 added the three
/// row-shape counters after the memo counters; version 3 added the four
/// transport-fault counters after the row counters.
pub const REPORT_VERSION: u16 = 3;

crate::wire_layout! {
    enum Served {
        0 => Simulated,
        1 => Memo,
        2 => Disk,
    }
}

crate::wire_layout! {
    struct LaunchReport [REPORT_VERSION: u16] {
        served: Served,
        counters: MemoCounters,
        rows: RowCounters,
        net: NetCounters,
        stats: KernelStats,
    }
}

impl LaunchReport {
    /// The canonical encoding as a fresh byte vector.
    pub fn encode(&self) -> Vec<u8> {
        wire::to_bytes(self, 640)
    }

    /// Decodes a standalone encoding. Returns `None` on truncation, version
    /// skew, an unknown tag, or trailing bytes.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        wire::from_bytes(bytes)
    }
}

/// [`crate::launch_traced`], packaged as a [`LaunchReport`].
pub fn launch_reported(
    cfg: &GpuConfig,
    kernel: &Kernel,
    dims: LaunchDims,
    params: &[Value],
    mem: &DeviceMemory,
) -> Result<LaunchReport, LaunchError> {
    let ctx = SimContext::current();
    let spec = LaunchSpec {
        kernel,
        dims,
        params,
        mem,
    };
    let (stats, served) = launch_with_memo(&ctx, cfg, spec, true)?;
    Ok(LaunchReport {
        stats,
        served,
        counters: ctx.metrics.memo.snapshot(),
        rows: ctx.metrics.rows.snapshot(),
        net: ctx.metrics.net.snapshot(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;
    use crate::counters::{SmStats, StallReason, TallyKey};
    use g80_isa::InstClass;

    fn sample_report() -> LaunchReport {
        let cfg = GpuConfig::geforce_8800_gtx();
        let mut sm = SmStats {
            cycles: 77,
            warp_instructions: 5,
            ..Default::default()
        };
        sm.by_class[InstClass::Exit.index()] = 1;
        LaunchReport {
            stats: KernelStats::merge("r", &cfg, vec![sm], 4, 0, 32, 1, 1),
            served: Served::Disk,
            counters: MemoCounters {
                hits: 1,
                misses: 2,
                disk_hits: 3,
                disk_misses: 4,
                disk_evictions: 5,
                dedup_fast_blocks: 6,
                dedup_sim_blocks: 7,
                dedup_fallbacks: 8,
            },
            rows: RowCounters {
                uniform: 9,
                affine: 10,
                full: 11,
            },
            net: NetCounters {
                disconnects: 12,
                frames_retried: 13,
                bytes_resent: 14,
                reconnects: 15,
            },
        }
    }

    #[test]
    fn report_roundtrips() {
        let r = sample_report();
        let bytes = r.encode();
        let back = LaunchReport::decode(&bytes).expect("roundtrip");
        assert_eq!(back.served, Served::Disk);
        assert_eq!(back.counters, r.counters);
        assert_eq!(back.rows, r.rows);
        assert_eq!(back.net, r.net);
        assert_eq!(back.stats.cycles, r.stats.cycles);
        assert_eq!(back.stats.by_class, r.stats.by_class);
        assert_eq!(bytes, back.encode(), "canonical re-encoding");
    }

    /// The version-3 layout, bytes taken from the commit before the counter
    /// codec became shared: version, tier tag, the 8 + 3 + 4 counters in
    /// declaration order, then the canonical stats.
    #[test]
    fn report_bytes_are_pinned() {
        let hex: String = sample_report()
            .encode()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        let counters: String = (1..=15u64)
            .map(|v| format!("{v:02x}00000000000000"))
            .collect();
        let stats = "0100000000000000724d00000000000000491d7e551c9f6e3e0500000000000000"
            .to_string()
            + &"00".repeat(120)
            + "040000000000000020000000010000002000000020000000000000009a9999999999f53f\
               0000000000005040100000001800000020000000010000000f000000010000000000000000000000";
        assert_eq!(hex, format!("030002{counters}{stats}"));
    }

    #[test]
    fn report_mutations_are_rejected_or_canonical() {
        // Two entries in each map, so a flip can repeat or reorder a key.
        let mut sm = SmStats::default();
        sm.by_class[InstClass::Fma.index()] = 3;
        sm.by_class[InstClass::Exit.index()] = 1;
        sm.stall_cycles[StallReason::Memory.index()] = 9;
        sm.stall_cycles[StallReason::Barrier.index()] = 2;
        let cfg = GpuConfig::geforce_8800_gtx();
        let report = LaunchReport {
            stats: KernelStats::merge("m", &cfg, vec![sm], 4, 0, 32, 1, 1),
            ..sample_report()
        };
        wire::assert_wire_mutations_rejected(&report);
    }

    #[test]
    fn report_rejects_skew_truncation_and_trailing_bytes() {
        let r = sample_report();
        let mut bytes = r.encode();
        assert!(LaunchReport::decode(&bytes[..bytes.len() - 1]).is_none());
        let mut skew = bytes.clone();
        skew[0] ^= 0xff; // version
        assert!(LaunchReport::decode(&skew).is_none());
        bytes.push(0);
        assert!(LaunchReport::decode(&bytes).is_none());
    }

    #[test]
    fn launch_reported_matches_launch() {
        use g80_isa::builder::KernelBuilder;
        let mut b = KernelBuilder::new("report_double");
        let buf = b.param();
        let tid = b.tid_x();
        let byte = b.shl(tid, 2u32);
        let a = b.iadd(byte, buf);
        let v = b.ld_global(a, 0);
        let d = b.fadd(v, v);
        b.st_global(a, 0, d);
        let k = b.build();
        let cfg = GpuConfig::geforce_8800_gtx();
        let dims = LaunchDims {
            grid: (1, 1),
            block: (32, 1, 1),
        };
        let mk_mem = || {
            let mem = DeviceMemory::new(256);
            for i in 0..32u32 {
                mem.write(i * 4, Value::from_f32(i as f32));
            }
            mem
        };
        let mem = mk_mem();
        let report =
            launch_reported(&cfg, &k, dims, &[Value::from_u32(0)], &mem).expect("launch ok");
        let mem2 = mk_mem();
        let direct =
            crate::launch::launch(&cfg, &k, dims, &[Value::from_u32(0)], &mem2).expect("launch ok");
        assert_eq!(report.stats.cycles, direct.cycles);
        assert_eq!(report.stats.warp_instructions, direct.warp_instructions);
        assert_eq!(report.stats.stall_cycles, direct.stall_cycles);
        assert_eq!(mem.read(12).as_f32(), 6.0);
    }
}
