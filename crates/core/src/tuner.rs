//! Configuration auto-tuning.
//!
//! Section 6: "it is also possible to get stuck in local maximums of
//! performance when attempting to follow a particular optimization
//! strategy… Better tools … that … automatically experiment with their
//! performance effects would greatly reduce the optimization effort." This
//! module is that tool for the simulated machine: an exhaustive sweep and a
//! greedy hill-climber whose trace makes the local-maximum phenomenon
//! observable. A batched launch evaluates a sweep in parallel;
//! [`SweepResult::from_samples`] ranks it.

use g80_sim::KernelStats;

/// One evaluated configuration.
#[derive(Clone, Debug)]
pub struct Sample<C> {
    pub config: C,
    pub stats: KernelStats,
}

impl<C> Sample<C> {
    /// The tuner's figure of merit (higher is better).
    pub fn score(&self) -> f64 {
        self.stats.gflops()
    }
}

/// Result of a sweep: best configuration plus the whole surface.
#[derive(Clone, Debug)]
pub struct SweepResult<C> {
    /// Every sample, in input order.
    pub samples: Vec<Sample<C>>,
    /// Index of the best sample.
    pub best: usize,
    /// In-process launch-memo-cache hits observed while this sweep ran. A
    /// fleet that revisits configurations pays simulation only for the
    /// misses; the hit rate is what makes the revisit speedup auditable.
    /// Measured as the delta of the sweep's context's
    /// [`g80_sim::memo_counters`], so concurrent launches in the same
    /// context are attributed to it as well.
    pub memo_hits: u64,
    /// Launch-memo-cache misses observed while this sweep ran (launches
    /// that simulated).
    pub memo_misses: u64,
    /// Launches served by the persistent disk cache tier
    /// ([`g80_sim::SimConfig::disk_dir`]) while this sweep ran — replayed from a
    /// prior process without simulating.
    pub disk_hits: u64,
    /// Disk-tier probes during this sweep that found no usable entry.
    pub disk_misses: u64,
    /// Disk-tier entries evicted during this sweep (corruption, version
    /// skew, or byte-budget compaction).
    pub disk_evictions: u64,
    /// Transport faults survived while this sweep ran, when the sweep was
    /// served over the `g80-serve` wire (all-zero for in-process sweeps):
    /// disconnects observed, frames retried after integrity failures,
    /// bytes re-sent, and reconnect-and-replay cycles. Attached by
    /// [`SweepResult::from_parts`] from the client's
    /// [`g80_sim::NetCounters`] delta.
    pub net: g80_sim::NetCounters,
}

impl<C> SweepResult<C> {
    /// Builds a result from already-evaluated samples (e.g. a
    /// `launch_batch` sweep), computing the best index. Cache activity
    /// happened outside this call, so the memo counters are zero; diff
    /// [`g80_sim::memo_counters`] around the evaluation to attribute it.
    pub fn from_samples(samples: Vec<Sample<C>>) -> Self {
        assert!(!samples.is_empty(), "empty configuration space");
        finish(samples, g80_sim::MemoCounters::default())
    }

    /// Builds a result from samples plus externally measured cache and
    /// transport counters, computing the best index. This is how a
    /// `g80-serve` client reassembles a sweep from streamed rows: it pairs
    /// the rows with the configurations it generated them from and attaches
    /// the counter delta the daemon reported for the sweep and the fault
    /// tallies it observed while streaming it.
    pub fn from_parts(
        samples: Vec<Sample<C>>,
        counters: g80_sim::MemoCounters,
        net: g80_sim::NetCounters,
    ) -> Self {
        assert!(!samples.is_empty(), "empty configuration space");
        SweepResult {
            net,
            ..finish(samples, counters)
        }
    }

    pub fn best_sample(&self) -> &Sample<C> {
        &self.samples[self.best]
    }

    /// Samples sorted best-first (for reports).
    pub fn ranked(&self) -> Vec<&Sample<C>> {
        let mut v: Vec<&Sample<C>> = self.samples.iter().collect();
        v.sort_by(|a, b| b.score().total_cmp(&a.score()));
        v
    }
}

/// Evaluates every configuration sequentially.
pub fn sweep<C: Clone>(configs: &[C], mut eval: impl FnMut(&C) -> KernelStats) -> SweepResult<C> {
    assert!(!configs.is_empty(), "empty configuration space");
    let (samples, delta) = with_memo_delta(|| {
        configs
            .iter()
            .map(|c| Sample {
                config: c.clone(),
                stats: eval(c),
            })
            .collect()
    });
    finish(samples, delta)
}

/// Runs `f` and returns its result plus the cache activity it caused across
/// both tiers (delta of the current context's [`g80_sim::memo_counters`]).
fn with_memo_delta<T>(f: impl FnOnce() -> T) -> (T, g80_sim::MemoCounters) {
    let before = g80_sim::memo_counters();
    let out = f();
    (out, g80_sim::memo_counters().since(&before))
}

fn finish<C>(samples: Vec<Sample<C>>, delta: g80_sim::MemoCounters) -> SweepResult<C> {
    let best = samples
        .iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| a.score().total_cmp(&b.score()))
        .map(|(i, _)| i)
        .unwrap();
    SweepResult {
        samples,
        best,
        memo_hits: delta.hits,
        memo_misses: delta.misses,
        disk_hits: delta.disk_hits,
        disk_misses: delta.disk_misses,
        disk_evictions: delta.disk_evictions,
        net: g80_sim::NetCounters::default(),
    }
}

/// Greedy hill-climbing from a start configuration: repeatedly move to the
/// best-scoring neighbour until no neighbour improves. Returns the path
/// taken — comparing its endpoint against an exhaustive sweep's optimum
/// demonstrates the paper's local-maximum warning.
pub fn hill_climb<C: Clone + PartialEq>(
    start: C,
    neighbours: impl Fn(&C) -> Vec<C>,
    mut eval: impl FnMut(&C) -> KernelStats,
) -> Vec<Sample<C>> {
    let mut path = vec![Sample {
        config: start.clone(),
        stats: eval(&start),
    }];
    loop {
        let current = path.last().unwrap();
        let mut best: Option<Sample<C>> = None;
        for n in neighbours(&current.config) {
            if path.iter().any(|s| s.config == n) {
                continue; // don't revisit
            }
            let s = Sample {
                stats: eval(&n),
                config: n,
            };
            if best.as_ref().is_none_or(|b| s.score() > b.score()) {
                best = Some(s);
            }
        }
        match best {
            Some(b) if b.score() > path.last().unwrap().score() => path.push(b),
            _ => return path,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use g80_isa::builder::KernelBuilder;
    use g80_isa::Value;
    use g80_sim::{launch, DeviceMemory, GpuConfig, LaunchDims};

    /// Streaming kernel whose performance depends on block size (occupancy).
    fn eval_block_size(threads: u32) -> KernelStats {
        let mut b = KernelBuilder::new("bs");
        let p = b.param();
        let tid = b.tid_x();
        let ntid = b.ntid_x();
        let cta = b.ctaid_x();
        let i = b.imad(cta, ntid, tid);
        let byte = b.shl(i, 2u32);
        let a = b.iadd(byte, p);
        let v = b.ld_global(a, 0);
        let acc = b.fmul(v, 2.0f32);
        b.st_global(a, 0, acc);
        let k = b.build();
        let mem = DeviceMemory::new(1 << 20);
        let total = 1u32 << 18;
        launch(
            &GpuConfig::geforce_8800_gtx(),
            &k,
            LaunchDims {
                grid: (total / threads, 1),
                block: (threads, 1, 1),
            },
            &[Value::from_u32(0)],
            &mem,
        )
        .unwrap()
    }

    #[test]
    fn sweep_finds_a_best_config() {
        let configs = [32u32, 64, 128, 256];
        let r = sweep(&configs, |&c| eval_block_size(c));
        assert_eq!(r.samples.len(), 4);
        let best = r.best_sample();
        for s in &r.samples {
            assert!(best.score() >= s.score());
        }
        let ranked = r.ranked();
        assert!(ranked[0].score() >= ranked.last().unwrap().score());
    }

    #[test]
    fn hill_climb_terminates_at_a_maximum() {
        let path = hill_climb(
            32u32,
            |&c| {
                let mut n = Vec::new();
                if c > 32 {
                    n.push(c / 2);
                }
                if c < 256 {
                    n.push(c * 2);
                }
                n
            },
            |&c| eval_block_size(c),
        );
        assert!(!path.is_empty());
        // Scores along the path strictly improve.
        for w in path.windows(2) {
            assert!(w[1].score() > w[0].score());
        }
    }

    #[test]
    fn revisit_sweep_reports_memo_hits() {
        let eval = |&threads: &u32| -> KernelStats {
            let mut b = KernelBuilder::new("revisit");
            let p = b.param();
            let tid = b.tid_x();
            let ntid = b.ntid_x();
            let cta = b.ctaid_x();
            let i = b.imad(cta, ntid, tid);
            let m = b.xor(i, 0x5eedu32);
            let byte = b.shl(i, 2u32);
            let a = b.iadd(byte, p);
            b.st_global(a, 0, m);
            let k = b.build();
            let mem = DeviceMemory::new(1 << 16);
            launch(
                &GpuConfig::geforce_8800_gtx(),
                &k,
                LaunchDims {
                    grid: ((1 << 12) / threads, 1),
                    block: (threads, 1, 1),
                },
                &[Value::from_u32(0)],
                &mem,
            )
            .unwrap()
        };
        let configs = [32u32, 64, 128, 256];
        // A context of its own — memo on, cold, holding the whole sweep, no
        // disk tier, no faults — so the sweeps' deltas are exactly their
        // own traffic.
        let ctx = g80_sim::SimContext::new(g80_sim::SimConfig::default());
        let (cold, warm) = ctx.enter(|| (sweep(&configs, eval), sweep(&configs, eval)));
        assert_eq!(
            (cold.memo_hits, cold.memo_misses),
            (0, 4),
            "first visit must simulate every configuration: {cold:?}"
        );
        assert_eq!(
            (warm.memo_hits, warm.memo_misses),
            (4, 0),
            "revisit must be served by the launch memo cache: {warm:?}"
        );
        for (a, b) in cold.samples.iter().zip(&warm.samples) {
            assert_eq!(a.stats.cycles, b.stats.cycles);
        }
    }

    #[test]
    #[should_panic(expected = "empty configuration space")]
    fn empty_sweep_panics() {
        let _ = sweep::<u32>(&[], |_| unreachable!());
    }
}
