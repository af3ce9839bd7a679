//! The optimization advisor: the paper's principles as an executable
//! checklist.
//!
//! Given the counters from a run, produce the ordered list of optimizations
//! a G80 expert would try — coalesce (Section 5.2's buffering-in-shared-
//! memory trick), tile for reuse (Section 4.2), unroll (4.3), rebalance
//! registers vs threads (4.4), pad shared memory (5.2), reorganize divergent
//! threads (principle 3).

use crate::model::{Bottleneck, PerfEstimate, Shares};
use crate::occupancy::{LimitingResource, Occupancy};
use g80_isa::InstClass;
use g80_sim::{GpuConfig, KernelStats};

/// One recommended optimization.
#[derive(Clone, Debug, PartialEq)]
pub struct Hint {
    pub kind: HintKind,
    /// Why this hint fired, with the relevant counter values.
    pub rationale: String,
    /// Larger = try first.
    pub priority: u32,
}

/// The optimization vocabulary of the paper.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum HintKind {
    /// Reorder/bufferedly stage accesses so half-warps coalesce.
    CoalesceGlobalAccesses,
    /// Stage reused data in shared memory (tiling).
    TileIntoSharedMemory,
    /// Unroll inner loops to cut branch/induction overhead.
    UnrollInnerLoop,
    /// Reduce per-thread registers (or block size) to fit more blocks.
    ReduceRegisterPressure,
    /// Pad or re-stride shared arrays to kill bank conflicts.
    FixBankConflicts,
    /// Regroup threads so warps don't diverge.
    AvoidDivergence,
    /// Launch more threads/blocks to hide latency.
    IncreaseParallelism,
    /// Move read-only, spatially-local data into texture memory.
    UseTextureCache,
    /// Move small read-only broadcast data into constant memory.
    UseConstantMemory,
}

/// Analyses a run and returns hints sorted by priority (desc): the hints of
/// its [`crate::explain()`] diagnosis.
pub fn advise(cfg: &GpuConfig, stats: &KernelStats) -> Vec<Hint> {
    crate::explain(cfg, stats).hints
}

/// The checklist over a run's counters and the estimate, occupancy and
/// shares already derived from them, sorted by priority (desc).
pub(crate) fn hints(
    cfg: &GpuConfig,
    stats: &KernelStats,
    est: &PerfEstimate,
    occ: &Occupancy,
    shares: &Shares,
) -> Vec<Hint> {
    let mut hints = Vec::new();
    let mut hint = |kind, priority, rationale| {
        hints.push(Hint {
            kind,
            rationale,
            priority,
        })
    };
    let count = |class| stats.by_class.get(&class).copied().unwrap_or(0);

    // 1. Coalescing: any substantial uncoalesced traffic.
    let half_warps = stats.coalesced_half_warps + stats.uncoalesced_half_warps;
    let uncoalesced = stats.uncoalesced_half_warps as f64 / half_warps.max(1) as f64;
    if uncoalesced > 0.10 {
        let rationale = format!(
            "{:.0}% of half-warp global accesses are uncoalesced \
             ({} of {}); each costs up to 16 transactions",
            uncoalesced * 100.0,
            stats.uncoalesced_half_warps,
            half_warps
        );
        hint(HintKind::CoalesceGlobalAccesses, 100, rationale);
    }

    // 2. Tiling: bandwidth-bound with no shared-memory use.
    if est.bottleneck == Bottleneck::MemoryBandwidth && count(InstClass::LdShared) == 0 {
        let rationale = format!(
            "kernel needs {:.0} GB/s to stay issue-bound but the chip has \
             {:.1} GB/s, and shared memory is unused — stage reused data \
             in tiles",
            est.required_bandwidth_gbps, cfg.dram_gbps
        );
        hint(HintKind::TileIntoSharedMemory, 90, rationale);
    }

    // 3. Unrolling: issue-bound with a low FMA fraction and visible branches.
    let branches = count(InstClass::Branch);
    let branch_frac = branches as f64 / stats.warp_instructions.max(1) as f64;
    if est.bottleneck == Bottleneck::InstructionIssue
        && stats.fma_fraction() < 0.25
        && branch_frac > 0.05
    {
        let rationale = format!(
            "issue-bound at only {:.0}% FMA with {:.0}% branches — \
             unrolling removes branch and induction instructions",
            stats.fma_fraction() * 100.0,
            branch_frac * 100.0
        );
        hint(HintKind::UnrollInnerLoop, 80, rationale);
    }

    // 4. Occupancy: registers limit residency and memory latency is exposed.
    if est.bottleneck == Bottleneck::MemoryLatency && occ.occupancy < 0.67 {
        let kind = if occ.limiter == LimitingResource::Registers {
            HintKind::ReduceRegisterPressure
        } else {
            HintKind::IncreaseParallelism
        };
        let rationale = format!(
            "memory latency exposed at {:.0}% occupancy ({} warps/SM, \
             limited by {:?})",
            occ.occupancy * 100.0,
            occ.warps_per_sm,
            occ.limiter
        );
        hint(kind, 85, rationale);
    }

    // 5. Bank conflicts.
    if shares.conflict > 0.05 {
        let rationale = format!(
            "{:.0}% of SM cycles serialized by shared-memory bank \
             conflicts — pad arrays or change the access stride",
            shares.conflict * 100.0
        );
        hint(HintKind::FixBankConflicts, 75, rationale);
    }

    // 6. Divergence.
    let div_frac = stats.divergent_branches as f64 / branches.max(1) as f64;
    if branches > 100 && div_frac > 0.30 {
        let rationale = format!(
            "{:.0}% of branches diverge within warps — regroup threads \
             so SIMD paths stay together",
            div_frac * 100.0
        );
        hint(HintKind::AvoidDivergence, 70, rationale);
    }

    // 7. Cache suggestions: read-mostly uncoalesced loads with no texture use.
    if stats.uncoalesced_half_warps > stats.coalesced_half_warps
        && count(InstClass::LdTex) == 0
        && stats.global_st_transactions < stats.global_ld_transactions / 4
    {
        let rationale = "read-dominated kernel with irregular accesses and no \
                         texture use — the texture cache can absorb locality \
                         the coalescer cannot";
        hint(HintKind::UseTextureCache, 60, rationale.to_string());
    }
    if count(InstClass::LdConst) == 0
        && stats.uncoalesced_half_warps > 0
        && est.bottleneck == Bottleneck::MemoryBandwidth
    {
        let rationale = "small read-only data broadcast to all threads belongs \
                         in constant memory (single-cycle on cache hit)";
        hint(HintKind::UseConstantMemory, 50, rationale.to_string());
    }

    hints.sort_by_key(|h| std::cmp::Reverse(h.priority));
    hints
}

#[cfg(test)]
mod tests {
    use super::*;
    use g80_isa::builder::{KernelBuilder, Unroll};
    use g80_isa::inst::Operand;
    use g80_isa::Value;
    use g80_sim::{launch, DeviceMemory, LaunchDims};

    fn gtx() -> GpuConfig {
        GpuConfig::geforce_8800_gtx()
    }

    #[test]
    fn uncoalesced_kernel_gets_coalesce_hint_first() {
        // Stride-2 access pattern: every half-warp uncoalesced.
        let mut b = KernelBuilder::new("strided");
        let p = b.param();
        let tid = b.tid_x();
        let ntid = b.ntid_x();
        let cta = b.ctaid_x();
        let i = b.imad(cta, ntid, tid);
        let byte = b.shl(i, 3u32); // *8: stride-2 words
        let a = b.iadd(byte, p);
        let v = b.ld_global(a, 0);
        let w = b.fadd(v, 1.0f32);
        b.st_global(a, 0, w);
        let k = b.build();

        let mem = DeviceMemory::new(1 << 22);
        let stats = launch(
            &gtx(),
            &k,
            LaunchDims {
                grid: (256, 1),
                block: (256, 1, 1),
            },
            &[Value::from_u32(0)],
            &mem,
        )
        .unwrap();
        let hints = advise(&gtx(), &stats);
        assert!(!hints.is_empty());
        assert_eq!(hints[0].kind, HintKind::CoalesceGlobalAccesses);
    }

    #[test]
    fn clean_compute_kernel_gets_no_noise() {
        let mut b = KernelBuilder::new("clean");
        let p = b.param();
        let tid = b.tid_x();
        let ntid = b.ntid_x();
        let cta = b.ctaid_x();
        let i = b.imad(cta, ntid, tid);
        let f = b.un(g80_isa::UnOp::CvtU2F, i);
        let acc0 = b.mov(Operand::imm_f(0.0));
        let acc1 = b.mov(Operand::imm_f(0.0));
        b.for_range(0u32, 128u32, 1, Unroll::Full, |b, _| {
            b.ffma_to(acc0, f, 1.5f32, acc0);
            b.ffma_to(acc1, f, 2.5f32, acc1);
        });
        let s = b.fadd(acc0, acc1);
        let byte = b.shl(i, 2u32);
        let a = b.iadd(byte, p);
        b.st_global(a, 0, s);
        let k = b.build();

        let mem = DeviceMemory::new(1 << 20);
        let stats = launch(
            &gtx(),
            &k,
            LaunchDims {
                grid: (96, 1),
                block: (256, 1, 1),
            },
            &[Value::from_u32(0)],
            &mem,
        )
        .unwrap();
        let hints = advise(&gtx(), &stats);
        // A near-roofline FMA kernel should trigger nothing.
        assert!(
            hints.is_empty(),
            "unexpected hints: {:?}",
            hints.iter().map(|h| h.kind).collect::<Vec<_>>()
        );
    }

    #[test]
    fn bank_conflicts_are_flagged() {
        let mut b = KernelBuilder::new("conflicted");
        let p = b.param();
        let smem = b.shared_alloc(16 * 256);
        let tid = b.tid_x();
        let woff = b.imul(tid, 64u32); // stride-16 words: 16-way conflicts
        let sa = b.iadd(woff, smem);
        let acc = b.mov(Operand::imm_f(0.0));
        b.for_range(0u32, 64u32, 1, Unroll::None, |b, _| {
            let v = b.ld_shared(sa, 0);
            b.ffma_to(acc, v, 1.5f32, acc);
        });
        let byte = b.shl(tid, 2u32);
        let a = b.iadd(byte, p);
        b.st_global(a, 0, acc);
        let k = b.build();

        let mem = DeviceMemory::new(1 << 16);
        let stats = launch(
            &gtx(),
            &k,
            LaunchDims {
                grid: (16, 1),
                block: (256, 1, 1),
            },
            &[Value::from_u32(0)],
            &mem,
        )
        .unwrap();
        let hints = advise(&gtx(), &stats);
        assert!(hints.iter().any(|h| h.kind == HintKind::FixBankConflicts));
    }

    #[test]
    fn streaming_copy_suggests_nothing_impossible() {
        // A perfectly coalesced copy is honestly bandwidth-bound; the only
        // acceptable hints are reuse-oriented.
        let mut b = KernelBuilder::new("copy");
        let (s, d) = (b.param(), b.param());
        let tid = b.tid_x();
        let ntid = b.ntid_x();
        let cta = b.ctaid_x();
        let i = b.imad(cta, ntid, tid);
        let byte = b.shl(i, 2u32);
        let sa = b.iadd(byte, s);
        let da = b.iadd(byte, d);
        let v = b.ld_global(sa, 0);
        b.st_global(da, 0, v);
        let k = b.build();
        let mem = DeviceMemory::new(1 << 22);
        let stats = launch(
            &gtx(),
            &k,
            LaunchDims {
                grid: (512, 1),
                block: (256, 1, 1),
            },
            &[Value::from_u32(0), Value::from_u32(1 << 21)],
            &mem,
        )
        .unwrap();
        let hints = advise(&gtx(), &stats);
        for h in &hints {
            assert!(
                matches!(
                    h.kind,
                    HintKind::TileIntoSharedMemory | HintKind::UseConstantMemory
                ),
                "unexpected hint for clean copy: {:?}",
                h.kind
            );
        }
    }
}
