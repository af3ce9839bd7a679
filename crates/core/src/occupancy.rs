//! The occupancy calculator (optimization principles 1 and 2).
//!
//! "The number of thread blocks that are simultaneously resident on an SM is
//! limited by whichever limit of registers, shared memory, threads, or
//! thread blocks is reached first" (Section 3.2). This module computes each
//! limit separately and names the binding one — the tool a developer needs
//! when an "attempted optimization allows one fewer thread block to be
//! scheduled per SM, reducing performance" (Section 4.4).

use g80_sim::GpuConfig;

/// Which per-SM resource binds first.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum LimitingResource {
    /// The 768-thread (24-warp) context limit.
    ThreadContexts,
    /// The 8192-entry register file.
    Registers,
    /// The 16 KB shared memory.
    SharedMemory,
    /// The 8-block scheduling limit.
    BlockSlots,
    /// The block doesn't fit at all.
    DoesNotFit,
}

/// Full occupancy breakdown for one kernel configuration.
#[derive(Clone, Debug)]
pub struct Occupancy {
    /// Resident blocks per SM.
    pub blocks_per_sm: u32,
    /// Resident warps per SM.
    pub warps_per_sm: u32,
    /// Resident threads per SM.
    pub threads_per_sm: u32,
    /// warps / 24.
    pub occupancy: f64,
    /// The resource that limits `blocks_per_sm`.
    pub limiter: LimitingResource,
}

/// Computes the occupancy of a kernel with the given per-thread registers,
/// per-block shared memory, and block size, from the limits the simulator's
/// scheduler applies ([`GpuConfig::block_limits`]).
pub fn occupancy(
    cfg: &GpuConfig,
    regs_per_thread: u32,
    smem_per_block: u32,
    threads_per_block: u32,
) -> Occupancy {
    let Some(limits) = cfg.block_limits(regs_per_thread, smem_per_block, threads_per_block) else {
        return Occupancy {
            blocks_per_sm: 0,
            warps_per_sm: 0,
            threads_per_sm: 0,
            occupancy: 0.0,
            limiter: LimitingResource::DoesNotFit,
        };
    };
    // A resource the kernel does not use never binds.
    let by_regs = limits.registers.unwrap_or(u32::MAX);
    let by_smem = limits.smem.unwrap_or(u32::MAX);
    let blocks = limits.blocks();
    // Name the binding limit (ties resolved in the paper's discussion order:
    // threads, registers, shared memory, block slots).
    let limiter = if blocks == 0 {
        LimitingResource::DoesNotFit
    } else if limits.threads == blocks {
        LimitingResource::ThreadContexts
    } else if by_regs == blocks {
        LimitingResource::Registers
    } else if by_smem == blocks {
        LimitingResource::SharedMemory
    } else {
        LimitingResource::BlockSlots
    };
    let warps = blocks * threads_per_block.div_ceil(cfg.warp_size);
    Occupancy {
        blocks_per_sm: blocks,
        warps_per_sm: warps,
        threads_per_sm: blocks * threads_per_block,
        occupancy: warps as f64 / cfg.max_warps_per_sm() as f64,
        limiter,
    }
}

/// Convenience: occupancy of a built kernel at a block size.
pub fn kernel_occupancy(
    cfg: &GpuConfig,
    kernel: &g80_isa::Kernel,
    threads_per_block: u32,
) -> Occupancy {
    occupancy(
        cfg,
        kernel.regs_per_thread,
        kernel.smem_bytes,
        threads_per_block,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gtx() -> GpuConfig {
        GpuConfig::geforce_8800_gtx()
    }

    #[test]
    fn paper_matmul_occupancy_cliff() {
        // Section 4.2: 10 regs/thread, 256-thread blocks: 3 blocks, 768
        // threads, full occupancy, limited by thread contexts.
        let o10 = occupancy(&gtx(), 10, 2048, 256);
        assert_eq!(o10.blocks_per_sm, 3);
        assert_eq!(o10.threads_per_sm, 768);
        assert!((o10.occupancy - 1.0).abs() < 1e-9);
        assert_eq!(o10.limiter, LimitingResource::ThreadContexts);

        // 11 regs: the register file binds; 2 blocks.
        let o11 = occupancy(&gtx(), 11, 2048, 256);
        assert_eq!(o11.blocks_per_sm, 2);
        assert_eq!(o11.limiter, LimitingResource::Registers);
        assert!(o11.occupancy < o10.occupancy);
    }

    #[test]
    fn small_tiles_hit_block_slot_limit() {
        // 4x4 tiles = 16-thread blocks: 8-block slot limit binds
        // (Section 4.2: "coupled with the 8 thread block limit").
        let o = occupancy(&gtx(), 10, 128, 16);
        assert_eq!(o.blocks_per_sm, 8);
        assert_eq!(o.limiter, LimitingResource::BlockSlots);
        assert_eq!(o.threads_per_sm, 128);
        // 8 half-empty warps occupy 8 of 24 warp contexts…
        assert!((o.occupancy - 8.0 / 24.0).abs() < 1e-9);
        // …but only 128 of 768 thread contexts do useful work.
        assert!((o.threads_per_sm as f64) / 768.0 < 0.17);
    }

    #[test]
    fn smem_can_be_the_limiter() {
        let o = occupancy(&gtx(), 8, 6 * 1024, 128);
        assert_eq!(o.blocks_per_sm, 2);
        assert_eq!(o.limiter, LimitingResource::SharedMemory);
    }

    #[test]
    fn impossible_blocks_report_does_not_fit() {
        let o = occupancy(&gtx(), 64, 0, 256); // 64*256 = 16384 > 8192
        assert_eq!(o.blocks_per_sm, 0);
        assert_eq!(o.limiter, LimitingResource::DoesNotFit);
        let o = occupancy(&gtx(), 8, 0, 0);
        assert_eq!(o.limiter, LimitingResource::DoesNotFit);
        let o = occupancy(&gtx(), 8, 17 * 1024, 64);
        assert_eq!(o.limiter, LimitingResource::DoesNotFit);
    }

    #[test]
    fn agrees_with_simulator_scheduler() {
        // The occupancy calculator and the launch-time block scheduler must
        // never disagree.
        let cfg = gtx();
        for regs in [1u32, 5, 10, 11, 16, 32] {
            for smem in [0u32, 1024, 4096, 8192] {
                for tpb in [16u32, 64, 128, 256, 512] {
                    let a = occupancy(&cfg, regs, smem, tpb).blocks_per_sm;
                    let b = cfg.blocks_per_sm(regs, smem, tpb);
                    assert_eq!(a, b, "regs={regs} smem={smem} tpb={tpb}");
                }
            }
        }
    }

    #[test]
    fn warps_round_up_for_partial_warps() {
        // 48-thread blocks occupy 2 warp contexts each.
        let o = occupancy(&gtx(), 8, 0, 48);
        assert_eq!(o.warps_per_sm, o.blocks_per_sm * 2);
    }
}
