//! The Section 4 diagnosis of one run, derived once: the estimate with its
//! verdict, the residency limiter, the dominant stall and the advisor's
//! hints, from one pass over the counters and with one rendering.

use std::fmt;

use crate::advisor::{self, Hint};
use crate::model::{estimate_with, PerfEstimate, Shares};
use crate::occupancy::{occupancy, Occupancy};
use g80_sim::{GpuConfig, KernelStats, StallReason};

/// What limits a run and what to try next.
#[derive(Clone, Debug)]
pub struct Diagnosis {
    /// Potential vs achieved throughput, and the named bottleneck.
    pub estimate: PerfEstimate,
    /// Residency at the run's own registers, shared memory and block size.
    pub occupancy: Occupancy,
    /// The reason the issue units idled longest, with its share of
    /// SM-cycles; `None` when they never idled.
    pub dominant_stall: Option<(StallReason, f64)>,
    /// The advisor's hints, most promising first.
    pub hints: Vec<Hint>,
}

/// Diagnoses a finished run from its counters.
pub fn explain(cfg: &GpuConfig, stats: &KernelStats) -> Diagnosis {
    let shares = Shares::of(cfg, stats);
    let estimate = estimate_with(cfg, stats, &shares);
    let occupancy = occupancy(
        cfg,
        stats.regs_per_thread,
        stats.smem_per_block,
        stats.threads_per_block,
    );
    let hints = advisor::hints(cfg, stats, &estimate, &occupancy, &shares);
    Diagnosis {
        estimate,
        occupancy,
        dominant_stall: shares.dominant,
        hints,
    }
}

/// One line each for the verdict, the occupancy, the dominant stall and
/// every hint.
impl fmt::Display for Diagnosis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (e, o) = (&self.estimate, &self.occupancy);
        write!(
            f,
            "{:?}: {:.2} of {:.2} GFLOPS potential (issue {:.1}, bandwidth {:.1}; \
             {:.0} GB/s to stay issue-bound)\n\
             occupancy {:.0}%: {} blocks/SM, {} warps, limited by {:?}",
            e.bottleneck,
            e.achieved_gflops,
            e.potential_gflops,
            e.issue_bound_gflops,
            e.bandwidth_bound_gflops,
            e.required_bandwidth_gbps,
            o.occupancy * 100.0,
            o.blocks_per_sm,
            o.warps_per_sm,
            o.limiter
        )?;
        match self.dominant_stall {
            Some((r, share)) => {
                write!(f, "\nmost idle: {r:?}, {:.1}% of SM-cycles", share * 100.0)?
            }
            None => write!(f, "\nnever idle")?,
        }
        if self.hints.is_empty() {
            write!(f, "\nadvisor: nothing to suggest")?;
        }
        for h in &self.hints {
            write!(f, "\nadvisor: {:?} — {}", h.kind, h.rationale)?;
        }
        Ok(())
    }
}
