//! The roofline as an invariant: what a launch's `KernelStats` may claim
//! about the machine that ran it. Each SM issues one warp instruction at a
//! time and draws DRAM at its even share of the chip's bandwidth, so over a
//! launch of `cycles` (the slowest SM's) the active SMs together had
//! `cycles × active` issue cycles and `cycles × active × share` DRAM bytes
//! to spend. All bounds are in cycles, so integer kernels are covered too.
//! Depends on `g80_sim` (and the `g80_isa` class its tallies are keyed by)
//! alone, so `crates/sim/tests` includes this file too.

use g80_isa::InstClass;
use g80_sim::{GpuConfig, KernelStats};

/// Panics, naming the launch and the bound, if `stats` claims more than
/// `cfg` could deliver.
pub fn check_invariants(cfg: &GpuConfig, stats: &KernelStats) {
    let name = &stats.name;
    // The stats came from this machine: the clock they were timed on and
    // the residency the scheduler granted.
    let seconds = cfg.cycles_to_seconds(stats.cycles);
    assert!(
        (stats.elapsed - seconds).abs() <= 1e-9 * seconds,
        "{name}: elapsed {} s is not {} cycles at {} GHz",
        stats.elapsed,
        stats.cycles,
        cfg.clock_ghz
    );
    assert_eq!(
        stats.blocks_per_sm,
        cfg.blocks_per_sm(
            stats.regs_per_thread,
            stats.smem_per_block,
            stats.threads_per_block
        ),
        "{name}: blocks per SM disagree with the occupancy limits"
    );

    // Blocks are dealt round-robin, so a grid smaller than the chip leaves
    // SMs idle. (Over accumulated launches this overcounts the active SMs
    // of the small ones, which only loosens the bounds.)
    let active = stats.blocks_executed.min(u64::from(cfg.num_sms));
    let sm_cycles = stats.cycles * active;

    // Issue-slot demand, a lower bound on issue-port cycles: every warp
    // instruction holds the port `issue_cycles`, an SFU one
    // `sfu_issue_cycles`, an integer one at least the cheaper of the plain
    // and the 32-bit-multiply slot (the class does not tell them apart),
    // plus the cycles bank conflicts serialize.
    let class = |c| stats.by_class.get(&c).copied().unwrap_or(0);
    let (sfu, ialu) = (class(InstClass::Sfu), class(InstClass::IAlu));
    let issue = (stats.warp_instructions - sfu - ialu) * cfg.issue_cycles
        + sfu * cfg.sfu_issue_cycles
        + ialu * cfg.issue_cycles.min(cfg.imul_issue_cycles)
        + stats.smem_conflict_extra_cycles;
    let stalls: u64 = stats.stall_cycles.values().sum();
    assert!(
        issue <= sm_cycles,
        "{name}: {issue} issue cycles do not fit in {} cycles on {active} SMs",
        stats.cycles
    );
    assert!(
        stalls + issue <= sm_cycles,
        "{name}: {stalls} stall + {issue} issue cycles exceed {} cycles on {active} SMs",
        stats.cycles
    );

    let dram = sm_cycles as f64 * cfg.dram_bytes_per_cycle_per_sm();
    assert!(
        stats.global_bytes as f64 <= dram,
        "{name}: {} DRAM bytes exceed {dram} deliverable in {} cycles on {active} SMs",
        stats.global_bytes,
        stats.cycles
    );
}
