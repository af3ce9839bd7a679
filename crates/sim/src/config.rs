//! Machine parameters.
//!
//! Defaults model the GeForce 8800 GTX as described in Section 3 of the
//! paper and the CUDA 0.8-era documentation. Every knob that the calibration
//! in EXPERIMENTS.md touches lives here, so alternative machines (or
//! sensitivity studies) are a struct literal away.

/// Configuration of the simulated GPU.
#[derive(Clone, Debug, PartialEq)]
pub struct GpuConfig {
    /// Number of streaming multiprocessors (SMs).
    pub num_sms: u32,
    /// Streaming processors (SPs) per SM.
    pub sps_per_sm: u32,
    /// Special functional units (SFUs) per SM.
    pub sfus_per_sm: u32,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Threads per warp.
    pub warp_size: u32,
    /// Maximum simultaneously resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Maximum simultaneously resident thread blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Maximum threads per block.
    pub max_threads_per_block: u32,
    /// Register file entries per SM (32-bit registers).
    pub registers_per_sm: u32,
    /// Shared memory bytes per SM.
    pub smem_per_sm: u32,
    /// Number of shared memory banks (word-interleaved).
    pub smem_banks: u32,
    /// Constant memory size in bytes.
    pub const_mem_bytes: u32,
    /// Per-SM constant cache size in bytes.
    pub const_cache_bytes: u32,
    /// Per-SM texture cache size in bytes.
    pub tex_cache_bytes: u32,
    /// Texture cache line size in bytes.
    pub tex_line_bytes: u32,

    // ---- timing ----
    /// Issue occupancy of one ordinary warp instruction (warp_size / sps_per_sm).
    pub issue_cycles: u64,
    /// Issue occupancy of an SFU warp instruction (warp_size / (2*sfus_per_sm)).
    pub sfu_issue_cycles: u64,
    /// Issue occupancy of a 32-bit integer multiply (multi-pass on 24-bit
    /// hardware multipliers).
    pub imul_issue_cycles: u64,
    /// Register read-after-write latency for ALU results, in cycles. With a
    /// 4-cycle issue rhythm this is why ~6 warps are needed to fully hide
    /// arithmetic latency.
    pub alu_latency: u64,
    /// RAW latency for SFU results.
    pub sfu_latency: u64,
    /// RAW latency for shared-memory loads (conflict-free).
    pub smem_latency: u64,
    /// RAW latency for constant-cache hits.
    pub const_hit_latency: u64,
    /// RAW latency for texture-cache hits.
    pub tex_hit_latency: u64,
    /// DRAM round-trip latency in cycles (applies to global/local/tex-miss
    /// and const-miss accesses, on top of bandwidth queueing).
    pub global_latency: u64,
    /// Pipeline-drain cost of a barrier: cycles between the last warp
    /// arriving at `__syncthreads()` and the block's warps issuing again.
    /// Hits small blocks hardest (Section 4.2's 4x4-tile collapse).
    pub barrier_latency: u64,

    // ---- bandwidth ----
    /// Aggregate DRAM bandwidth in GB/s.
    pub dram_gbps: f64,
    /// Bytes moved per transaction for a coalesced half-warp access.
    pub coalesced_txn_bytes: u32,
    /// Bytes charged per transaction for an uncoalesced access (DRAM burst
    /// granularity; one transaction per distinct address in the half-warp).
    pub uncoalesced_txn_bytes: u32,
    /// Whether duplicate addresses within a half-warp are combined into one
    /// transaction (the paper's footnote 4 suspects the memory system does
    /// this; measurement says mostly yes).
    pub combine_duplicates: bool,
}

impl GpuConfig {
    /// The GeForce 8800 GTX (G80), the machine of the paper.
    pub fn geforce_8800_gtx() -> Self {
        GpuConfig {
            num_sms: 16,
            sps_per_sm: 8,
            sfus_per_sm: 2,
            clock_ghz: 1.35,
            warp_size: 32,
            max_threads_per_sm: 768,
            max_blocks_per_sm: 8,
            max_threads_per_block: 512,
            registers_per_sm: 8192,
            smem_per_sm: 16 * 1024,
            smem_banks: 16,
            const_mem_bytes: 64 * 1024,
            const_cache_bytes: 8 * 1024,
            tex_cache_bytes: 8 * 1024,
            tex_line_bytes: 32,

            issue_cycles: 4,
            sfu_issue_cycles: 16,
            imul_issue_cycles: 16,
            alu_latency: 20,
            sfu_latency: 36,
            smem_latency: 24,
            const_hit_latency: 24,
            tex_hit_latency: 120,
            global_latency: 470,
            barrier_latency: 40,

            dram_gbps: 86.4,
            coalesced_txn_bytes: 64,
            uncoalesced_txn_bytes: 16,
            combine_duplicates: false,
        }
    }

    /// The GeForce 8800 GTS 640 — the same G80 silicon with 12 SMs and a
    /// narrower 64 GB/s memory interface. Useful for the paper's
    /// observation that CUDA programs scale across "processor family
    /// members with a varying number of cores".
    pub fn geforce_8800_gts() -> Self {
        GpuConfig {
            num_sms: 12,
            clock_ghz: 1.2,
            dram_gbps: 64.0,
            ..Self::geforce_8800_gtx()
        }
    }

    /// A GT200-generation machine (GTX 280-like): 30 SMs, a doubled
    /// register file, 1024-thread SMs, faster DRAM, and the relaxed
    /// compute-capability-1.2 coalescer that combines a half-warp's
    /// touched segments instead of issuing one transaction per lane.
    /// The substrate for the Section 6 architecture-shift study.
    pub fn gtx280_like() -> Self {
        GpuConfig {
            num_sms: 30,
            clock_ghz: 1.296,
            max_threads_per_sm: 1024,
            registers_per_sm: 16 * 1024,
            dram_gbps: 141.7,
            combine_duplicates: true,
            uncoalesced_txn_bytes: 32,
            ..Self::geforce_8800_gtx()
        }
    }

    /// Feeds every field to `h`, in declaration order — the launch memo's
    /// key for "which machine". The destructuring names every field and has
    /// no `..`, so adding a field without hashing it does not compile.
    /// Floats go in by bit pattern: two configs that differ in any bit are
    /// different machines to the cache.
    pub(crate) fn hash_fields(&self, h: &mut impl std::hash::Hasher) {
        let GpuConfig {
            num_sms,
            sps_per_sm,
            sfus_per_sm,
            clock_ghz,
            warp_size,
            max_threads_per_sm,
            max_blocks_per_sm,
            max_threads_per_block,
            registers_per_sm,
            smem_per_sm,
            smem_banks,
            const_mem_bytes,
            const_cache_bytes,
            tex_cache_bytes,
            tex_line_bytes,
            issue_cycles,
            sfu_issue_cycles,
            imul_issue_cycles,
            alu_latency,
            sfu_latency,
            smem_latency,
            const_hit_latency,
            tex_hit_latency,
            global_latency,
            barrier_latency,
            dram_gbps,
            coalesced_txn_bytes,
            uncoalesced_txn_bytes,
            combine_duplicates,
        } = *self;
        for field in [
            num_sms as u64,
            sps_per_sm as u64,
            sfus_per_sm as u64,
            clock_ghz.to_bits(),
            warp_size as u64,
            max_threads_per_sm as u64,
            max_blocks_per_sm as u64,
            max_threads_per_block as u64,
            registers_per_sm as u64,
            smem_per_sm as u64,
            smem_banks as u64,
            const_mem_bytes as u64,
            const_cache_bytes as u64,
            tex_cache_bytes as u64,
            tex_line_bytes as u64,
            issue_cycles,
            sfu_issue_cycles,
            imul_issue_cycles,
            alu_latency,
            sfu_latency,
            smem_latency,
            const_hit_latency,
            tex_hit_latency,
            global_latency,
            barrier_latency,
            dram_gbps.to_bits(),
            coalesced_txn_bytes as u64,
            uncoalesced_txn_bytes as u64,
            combine_duplicates as u64,
        ] {
            h.write_u64(field);
        }
    }

    /// Maximum resident warps per SM.
    pub fn max_warps_per_sm(&self) -> u32 {
        self.max_threads_per_sm / self.warp_size
    }

    /// Peak multiply-add throughput in GFLOPS (SPs only): the paper's
    /// 345.6 GFLOPS for the 8800 GTX.
    pub fn peak_mad_gflops(&self) -> f64 {
        (self.num_sms * self.sps_per_sm) as f64 * 2.0 * self.clock_ghz
    }

    /// Peak warp-instruction issue rate in thread-instructions per second
    /// (128 * 1.35e9 for the GTX).
    pub fn peak_issue_rate(&self) -> f64 {
        (self.num_sms * self.sps_per_sm) as f64 * self.clock_ghz * 1e9
    }

    /// DRAM bytes per core cycle, chip-wide.
    pub fn dram_bytes_per_cycle(&self) -> f64 {
        self.dram_gbps / self.clock_ghz
    }

    /// DRAM bytes per cycle available to one SM (the simulator partitions
    /// bandwidth evenly so SMs can be simulated independently; see DESIGN.md §3).
    pub fn dram_bytes_per_cycle_per_sm(&self) -> f64 {
        self.dram_bytes_per_cycle() / self.num_sms as f64
    }

    /// Converts a cycle count to seconds.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.clock_ghz * 1e9)
    }

    /// How many blocks of a kernel fit on one SM simultaneously, given the
    /// per-thread register demand, per-block shared memory, and block size.
    /// Returns 0 if a single block does not fit.
    pub fn blocks_per_sm(
        &self,
        regs_per_thread: u32,
        smem_per_block: u32,
        threads_per_block: u32,
    ) -> u32 {
        self.block_limits(regs_per_thread, smem_per_block, threads_per_block)
            .map_or(0, |l| l.blocks())
    }

    /// What each per-SM resource admits on its own, the breakdown behind
    /// [`GpuConfig::blocks_per_sm`]; `None` for a block size the machine
    /// cannot launch at all.
    pub fn block_limits(
        &self,
        regs_per_thread: u32,
        smem_per_block: u32,
        threads_per_block: u32,
    ) -> Option<BlockLimits> {
        if threads_per_block == 0 || threads_per_block > self.max_threads_per_block {
            return None;
        }
        // Thread contexts bind twice: raw threads (768) and warp contexts
        // (24) — a partial warp occupies a whole warp context.
        let warps_per_block = threads_per_block.div_ceil(self.warp_size);
        Some(BlockLimits {
            threads: (self.max_threads_per_sm / threads_per_block)
                .min(self.max_warps_per_sm() / warps_per_block),
            // In `u64`: a kernel's register count is outside input, and its
            // product with the block size can wrap `u32` (to zero).
            registers: (regs_per_thread > 0).then(|| {
                let demand = u64::from(regs_per_thread) * u64::from(threads_per_block);
                (u64::from(self.registers_per_sm) / demand) as u32
            }),
            smem: self.smem_per_sm.checked_div(smem_per_block),
            slots: self.max_blocks_per_sm,
        })
    }
}

/// Blocks per SM that each resource admits (Section 3.2: residency is
/// "limited by whichever limit of registers, shared memory, threads, or
/// thread blocks is reached first").
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct BlockLimits {
    /// Thread and warp contexts.
    pub threads: u32,
    /// The register file; `None` when the kernel needs no registers.
    pub registers: Option<u32>,
    /// Shared memory; `None` when the block needs none.
    pub smem: Option<u32>,
    /// The block-slot limit.
    pub slots: u32,
}

impl BlockLimits {
    /// Resident blocks: the tightest limit.
    pub fn blocks(&self) -> u32 {
        let unbounded = |l: Option<u32>| l.unwrap_or(u32::MAX);
        self.threads
            .min(unbounded(self.registers))
            .min(unbounded(self.smem))
            .min(self.slots)
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self::geforce_8800_gtx()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_peak_numbers() {
        let g = GpuConfig::geforce_8800_gtx();
        assert!((g.peak_mad_gflops() - 345.6).abs() < 0.1);
        // With SFU co-issue: 16 SMs * 18 FLOPS/SM * 1.35 GHz.
        let sfu_peak = (g.num_sms * (g.sps_per_sm * 2 + g.sfus_per_sm)) as f64 * g.clock_ghz;
        assert!((sfu_peak - 388.8).abs() < 0.1);
        assert_eq!(g.max_warps_per_sm(), 24);
        assert!((g.dram_bytes_per_cycle() - 64.0).abs() < 0.01);
        assert!((g.dram_bytes_per_cycle_per_sm() - 4.0).abs() < 0.01);
    }

    #[test]
    fn section_4_occupancy_cases() {
        let g = GpuConfig::geforce_8800_gtx();
        // "This code uses ten registers per thread, allowing the maximum of
        // 768 threads to be scheduled per SM ... three thread blocks of 256
        // threads each."
        assert_eq!(g.blocks_per_sm(10, 0, 256), 3);
        // "To run three thread blocks, this requires 3*256*11 = 8448
        // registers, which is larger than an SM's register file. Thus, each
        // SM executes only two blocks."
        assert_eq!(g.blocks_per_sm(11, 0, 256), 2);
    }

    #[test]
    fn tile_size_occupancy() {
        let g = GpuConfig::geforce_8800_gtx();
        // 4x4 tiles: 16 threads/block, 8-block limit => 128 threads.
        assert_eq!(g.blocks_per_sm(10, 128, 16), 8);
        // 8x8 tiles: 64 threads/block; would need 12 blocks for full
        // occupancy but caps at 8.
        assert_eq!(g.blocks_per_sm(10, 512, 64), 8);
        // 16x16 tiles with 10 regs and 2KB smem: 3 blocks.
        assert_eq!(g.blocks_per_sm(10, 2048, 256), 3);
    }

    #[test]
    fn blocks_per_sm_edge_cases() {
        let g = GpuConfig::geforce_8800_gtx();
        assert_eq!(g.blocks_per_sm(10, 0, 0), 0);
        assert_eq!(g.blocks_per_sm(10, 0, 513), 0); // above 512-thread cap
        assert_eq!(g.blocks_per_sm(40, 0, 512), 0); // 40*512 > 8192 regs
        assert_eq!(g.blocks_per_sm(16, 0, 512), 1);
        assert_eq!(g.blocks_per_sm(1, 17 * 1024, 64), 0); // smem too big
    }

    #[test]
    fn family_presets_are_consistent() {
        let gts = GpuConfig::geforce_8800_gts();
        assert_eq!(gts.num_sms, 12);
        assert!(gts.peak_mad_gflops() < GpuConfig::geforce_8800_gtx().peak_mad_gflops());
        // Same SM microarchitecture: occupancy rules unchanged.
        assert_eq!(gts.blocks_per_sm(10, 0, 256), 3);

        let gt200 = GpuConfig::gtx280_like();
        assert_eq!(gt200.max_warps_per_sm(), 32);
        // The doubled register file absorbs the Section 4.2 cliff:
        // 11 registers still fit three 256-thread blocks.
        assert!(gt200.blocks_per_sm(11, 0, 256) >= 3);
        assert!(gt200.combine_duplicates);
    }

    #[test]
    fn smem_limits_blocks() {
        let g = GpuConfig::geforce_8800_gtx();
        // 6KB per block => 2 blocks by smem even though regs/threads allow 3.
        assert_eq!(g.blocks_per_sm(8, 6 * 1024, 256), 2);
    }
}
