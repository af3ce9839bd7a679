//! The analytical performance model of Section 4.
//!
//! The paper's optimization loop repeatedly *estimates potential throughput*
//! from the instruction mix ("one fused multiply-add out of eight operations
//! … for an estimated potential throughput of 43.2 GFLOPS") and the memory
//! traffic ("which would require a bandwidth of 173 GB/s to fully utilize
//! the SPs"), then compares against what the machine achieved to name the
//! bottleneck. This module turns that methodology into code.

use g80_sim::{GpuConfig, KernelStats, StallReason};

/// What limits a kernel, in the paper's vocabulary.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Bottleneck {
    /// Running at the instruction-issue roofline — optimize by removing
    /// instructions (unrolling, CSE; Section 4.3).
    InstructionIssue,
    /// DRAM bandwidth saturated — optimize by reuse (tiling) and coalescing.
    MemoryBandwidth,
    /// Bandwidth is fine but latency is exposed: not enough concurrent
    /// threads (occupancy) or too-serial dependence chains.
    MemoryLatency,
    /// Shared-memory bank conflicts serialize the pipeline.
    BankConflicts,
    /// Warps idle at barriers (unbalanced work or few warps per block).
    Synchronization,
}

/// Roofline estimate + achieved numbers for one kernel run.
#[derive(Clone, Debug)]
pub struct PerfEstimate {
    /// GFLOPS if the only limit were instruction issue: peak issue rate ×
    /// FLOPs per thread-instruction.
    pub issue_bound_gflops: f64,
    /// GFLOPS if the only limit were DRAM bandwidth: bytes-per-FLOP against
    /// 86.4 GB/s.
    pub bandwidth_bound_gflops: f64,
    /// min of the two bounds — the paper's "potential throughput".
    pub potential_gflops: f64,
    /// What the simulator actually delivered.
    pub achieved_gflops: f64,
    /// achieved / potential.
    pub efficiency: f64,
    /// DRAM bandwidth the kernel would need to run at the issue bound
    /// (the "173 GB/s" style number).
    pub required_bandwidth_gbps: f64,
    /// The named bottleneck.
    pub bottleneck: Bottleneck,
}

/// A run's issue cycles lost to each cause, as shares of its SM-cycles
/// (elapsed cycles × SMs): derived once per diagnosis, read by the
/// classifier, the advisor and [`crate::explain()`].
pub(crate) struct Shares {
    /// Serialized by shared-memory bank conflicts.
    pub conflict: f64,
    /// Idle, all stall reasons together.
    pub stalled: f64,
    /// Idle waiting on memory results.
    pub memory: f64,
    /// Idle at barriers.
    pub barrier: f64,
    /// The reason with the most idle cycles, with its share.
    pub dominant: Option<(StallReason, f64)>,
}

impl Shares {
    pub(crate) fn of(cfg: &GpuConfig, stats: &KernelStats) -> Shares {
        let sm_cycles = (stats.cycles * cfg.num_sms as u64).max(1) as f64;
        let share = |cycles: u64| cycles as f64 / sm_cycles;
        let stall = |r| share(stats.stall_cycles.get(&r).copied().unwrap_or(0));
        // A tie goes to the reason declared first, whatever the map's order.
        let dominant = stats
            .stall_cycles
            .iter()
            .max_by_key(|&(&r, &c)| (c, std::cmp::Reverse(r as u8)))
            .map(|(&r, &c)| (r, share(c)));
        Shares {
            conflict: share(stats.smem_conflict_extra_cycles),
            stalled: share(stats.stall_cycles.values().sum()),
            memory: stall(StallReason::Memory),
            barrier: stall(StallReason::Barrier),
            dominant,
        }
    }
}

/// Builds the Section 4 estimate from a finished run's counters.
pub fn estimate(cfg: &GpuConfig, stats: &KernelStats) -> PerfEstimate {
    estimate_with(cfg, stats, &Shares::of(cfg, stats))
}

/// [`estimate`] over a run's already-derived [`Shares`].
pub(crate) fn estimate_with(cfg: &GpuConfig, stats: &KernelStats, shares: &Shares) -> PerfEstimate {
    // Issue-slot accounting: SFU transcendentals occupy the issue port four
    // times longer than SP instructions, so a trig-heavy kernel's roofline
    // is correspondingly lower.
    let sfu = stats
        .by_class
        .get(&g80_isa::InstClass::Sfu)
        .copied()
        .unwrap_or(0);
    let slot_weight = if stats.warp_instructions == 0 {
        1.0
    } else {
        let extra = sfu as f64 * (cfg.sfu_issue_cycles as f64 / cfg.issue_cycles as f64 - 1.0);
        1.0 + extra / stats.warp_instructions as f64
    };
    let flops_per_inst = if stats.thread_instructions == 0 {
        0.0
    } else {
        stats.flops as f64 / stats.thread_instructions as f64
    };
    let issue_bound = cfg.peak_issue_rate() * flops_per_inst / slot_weight / 1e9;

    let bytes_per_flop = if stats.flops == 0 {
        f64::INFINITY
    } else {
        stats.global_bytes as f64 / stats.flops as f64
    };
    let bandwidth_bound = if bytes_per_flop == 0.0 {
        f64::INFINITY
    } else {
        cfg.dram_gbps / bytes_per_flop
    };

    let potential = issue_bound.min(bandwidth_bound);
    let achieved = stats.gflops();
    let efficiency = if potential > 0.0 {
        achieved / potential
    } else {
        0.0
    };

    // Bandwidth needed to sustain the issue bound.
    let elapsed_at_issue = if issue_bound > 0.0 {
        stats.flops as f64 / (issue_bound * 1e9)
    } else {
        f64::INFINITY
    };
    let required_bw = if elapsed_at_issue.is_finite() && elapsed_at_issue > 0.0 {
        stats.global_bytes as f64 / elapsed_at_issue / 1e9
    } else {
        0.0
    };

    let bottleneck = classify(cfg, stats, shares, issue_bound, bandwidth_bound, achieved);

    PerfEstimate {
        issue_bound_gflops: issue_bound,
        bandwidth_bound_gflops: bandwidth_bound,
        potential_gflops: potential,
        achieved_gflops: achieved,
        efficiency,
        required_bandwidth_gbps: required_bw,
        bottleneck,
    }
}

fn classify(
    cfg: &GpuConfig,
    stats: &KernelStats,
    shares: &Shares,
    issue_bound: f64,
    bandwidth_bound: f64,
    achieved: f64,
) -> Bottleneck {
    // Shared-memory conflicts serialized a noticeable slice of the pipeline?
    if shares.conflict > 0.10 {
        return Bottleneck::BankConflicts;
    }
    // DRAM interface saturated?
    if stats.bandwidth_gbps() > 0.70 * cfg.dram_gbps {
        return Bottleneck::MemoryBandwidth;
    }
    // Near the issue roofline?
    if issue_bound <= bandwidth_bound && achieved > 0.75 * issue_bound {
        return Bottleneck::InstructionIssue;
    }
    // The issue port is busy nearly all the time (covers integer-only
    // kernels, where a FLOPS roofline says nothing).
    if shares.stalled < 0.20 {
        return Bottleneck::InstructionIssue;
    }
    // Otherwise attribute by stall profile.
    if shares.memory > shares.barrier {
        Bottleneck::MemoryLatency
    } else if shares.barrier > 0.05 {
        Bottleneck::Synchronization
    } else if achieved > 0.5 * issue_bound.min(bandwidth_bound) {
        Bottleneck::InstructionIssue
    } else {
        Bottleneck::MemoryLatency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use g80_isa::builder::{KernelBuilder, Unroll};
    use g80_isa::Operand;
    use g80_isa::Value;
    use g80_sim::{launch, DeviceMemory, LaunchDims};

    fn gtx() -> GpuConfig {
        GpuConfig::geforce_8800_gtx()
    }

    /// Compute-heavy kernel: long FMA chain on register data.
    fn compute_kernel() -> g80_isa::Kernel {
        let mut b = KernelBuilder::new("compute");
        let p = b.param();
        let tid = b.tid_x();
        let f = b.un(g80_isa::UnOp::CvtU2F, tid);
        // Two interleaved chains so the ALU latency can be hidden.
        let acc0 = b.mov(Operand::imm_f(1.0));
        let acc1 = b.mov(Operand::imm_f(2.0));
        b.for_range(0u32, 64u32, 1, Unroll::Full, |b, _| {
            b.ffma_to(acc0, f, 1.0001f32, acc0);
            b.ffma_to(acc1, f, 0.9999f32, acc1);
        });
        let s = b.fadd(acc0, acc1);
        let byte = b.shl(tid, 2u32);
        let a = b.iadd(byte, p);
        b.st_global(a, 0, s);
        b.build()
    }

    /// Streaming kernel: pure copy, bandwidth-bound.
    fn stream_kernel() -> g80_isa::Kernel {
        let mut b = KernelBuilder::new("stream");
        let (src, dst) = (b.param(), b.param());
        let tid = b.tid_x();
        let ntid = b.ntid_x();
        let cta = b.ctaid_x();
        let i = b.imad(cta, ntid, tid);
        let byte = b.shl(i, 2u32);
        let sa = b.iadd(byte, src);
        let da = b.iadd(byte, dst);
        let v = b.ld_global(sa, 0);
        let w = b.fadd(v, 1.0f32);
        b.st_global(da, 0, w);
        b.build()
    }

    #[test]
    fn compute_kernel_classified_as_issue_bound() {
        let cfg = gtx();
        let mem = DeviceMemory::new(1 << 16);
        let k = compute_kernel();
        let stats = launch(
            &cfg,
            &k,
            LaunchDims {
                grid: (48, 1),
                block: (256, 1, 1),
            },
            &[Value::from_u32(0)],
            &mem,
        )
        .unwrap();
        let est = estimate(&cfg, &stats);
        assert_eq!(est.bottleneck, Bottleneck::InstructionIssue);
        // FMA-dominated: issue bound should be a large fraction of peak.
        assert!(est.issue_bound_gflops > 0.5 * cfg.peak_mad_gflops());
        assert!(est.achieved_gflops > 0.7 * est.issue_bound_gflops);
        assert!(est.bandwidth_bound_gflops > est.issue_bound_gflops);
    }

    #[test]
    fn stream_kernel_classified_as_bandwidth_bound() {
        let cfg = gtx();
        let mem = DeviceMemory::new(1 << 22);
        let k = stream_kernel();
        let stats = launch(
            &cfg,
            &k,
            LaunchDims {
                grid: (1024, 1),
                block: (256, 1, 1),
            },
            &[Value::from_u32(0), Value::from_u32(1 << 21)],
            &mem,
        )
        .unwrap();
        let est = estimate(&cfg, &stats);
        assert_eq!(est.bottleneck, Bottleneck::MemoryBandwidth);
        // A copy kernel's bandwidth bound is far below its issue bound.
        assert!(est.bandwidth_bound_gflops < est.issue_bound_gflops);
        assert!(stats.bandwidth_gbps() > 0.7 * cfg.dram_gbps);
    }

    #[test]
    fn required_bandwidth_reports_oversubscription() {
        // The naive-matmul-style sanity: a kernel that loads 8 bytes per FMA
        // would need 4 B/FLOP x issue-bound GFLOPS of bandwidth.
        let cfg = gtx();
        let mem = DeviceMemory::new(1 << 22);
        let k = stream_kernel();
        let stats = launch(
            &cfg,
            &k,
            LaunchDims {
                grid: (1024, 1),
                block: (256, 1, 1),
            },
            &[Value::from_u32(0), Value::from_u32(1 << 21)],
            &mem,
        )
        .unwrap();
        let est = estimate(&cfg, &stats);
        assert!(
            est.required_bandwidth_gbps > cfg.dram_gbps,
            "a pure copy needs more bandwidth than the chip has to stay issue-bound: {}",
            est.required_bandwidth_gbps
        );
    }
}
