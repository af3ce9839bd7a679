//! Configuration auto-tuning.
//!
//! Section 6: "it is also possible to get stuck in local maximums of
//! performance when attempting to follow a particular optimization
//! strategy… Better tools … that … automatically experiment with their
//! performance effects would greatly reduce the optimization effort." This
//! module is that tool for the simulated machine: exhaustive sweeps (in
//! parallel over host cores) and a greedy hill-climber whose trace makes the
//! local-maximum phenomenon observable.

use g80_sim::{KernelStats, SimError};

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

    /// Builds a result from samples plus externally measured cache
    /// counters, computing the best index. This is how a `g80-serve` client
    /// reassembles a sweep from streamed rows: it pairs the rows with the
    /// configurations it generated them from and attaches the counter delta
    /// the daemon reported for the sweep.
    pub fn from_parts(samples: Vec<Sample<C>>, counters: g80_sim::MemoCounters) -> Self {
        assert!(!samples.is_empty(), "empty configuration space");
        finish(samples, counters)
    }

    /// [`SweepResult::from_parts`], additionally attaching the transport
    /// fault tallies the client observed while streaming the sweep.
    pub fn from_parts_with_net(
        samples: Vec<Sample<C>>,
        counters: g80_sim::MemoCounters,
        net: g80_sim::NetCounters,
    ) -> Self {
        let mut r = Self::from_parts(samples, counters);
        r.net = net;
        r
    }

    /// Cache hit fraction over this sweep's launches, counting both the
    /// in-process memo and the disk tier (0 when nothing was probed — e.g.
    /// the cache is disabled).
    pub fn memo_hit_rate(&self) -> f64 {
        let served = self.memo_hits + self.disk_hits;
        let total = served + self.memo_misses;
        if total == 0 {
            0.0
        } else {
            served as f64 / total as f64
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

/// Evaluates every configuration in parallel on the shared simulation
/// worker pool ([`g80_sim::pool`]). `eval` must be pure with respect to
/// shared state (each call typically builds a fresh device). Results are
/// returned in input order, so the sweep is deterministic for any worker
/// count.
pub fn sweep_parallel<C: Clone + Send + Sync>(
    configs: &[C],
    eval: impl Fn(&C) -> KernelStats + Send + Sync,
) -> SweepResult<C> {
    assert!(!configs.is_empty(), "empty configuration space");
    let eval = &eval;
    let (stats, delta) = with_memo_delta(|| {
        g80_sim::pool::run_tasks(configs.iter().map(|c| move || eval(c)).collect())
    });
    finish(
        configs
            .iter()
            .zip(stats)
            .map(|(c, stats)| Sample {
                config: c.clone(),
                stats,
            })
            .collect(),
        delta,
    )
}

/// A sweep over a fallible evaluator: the survivors' surface plus the
/// configurations that failed. Produced by [`sweep_fallible`] /
/// [`sweep_parallel_fallible`].
#[derive(Clone, Debug)]
pub struct FallibleSweep<C> {
    /// Sweep result over the configurations that evaluated successfully.
    pub result: SweepResult<C>,
    /// Configurations whose evaluation failed, with their errors, in input
    /// order.
    pub failures: Vec<(C, SimError)>,
}

/// [`sweep`] for evaluators that can fail (degraded launches, device-layer
/// errors). A failing configuration is dropped from the surface and
/// reported in [`FallibleSweep::failures`]; the sweep itself only errors
/// when *every* configuration failed (the first error is returned).
pub fn sweep_fallible<C: Clone>(
    configs: &[C],
    mut eval: impl FnMut(&C) -> Result<KernelStats, SimError>,
) -> Result<FallibleSweep<C>, SimError> {
    assert!(!configs.is_empty(), "empty configuration space");
    let (evaluated, delta) = with_memo_delta(|| {
        configs
            .iter()
            .map(|c| (c.clone(), eval(c)))
            .collect::<Vec<_>>()
    });
    collect_fallible(evaluated, delta)
}

/// [`sweep_parallel`] for evaluators that can fail; same per-configuration
/// degradation contract as [`sweep_fallible`].
pub fn sweep_parallel_fallible<C: Clone + Send + Sync>(
    configs: &[C],
    eval: impl Fn(&C) -> Result<KernelStats, SimError> + Send + Sync,
) -> Result<FallibleSweep<C>, SimError> {
    assert!(!configs.is_empty(), "empty configuration space");
    let eval = &eval;
    let (results, delta) = with_memo_delta(|| {
        g80_sim::pool::run_tasks(configs.iter().map(|c| move || eval(c)).collect())
    });
    collect_fallible(configs.iter().cloned().zip(results).collect(), delta)
}

fn collect_fallible<C>(
    evaluated: Vec<(C, Result<KernelStats, SimError>)>,
    delta: g80_sim::MemoCounters,
) -> Result<FallibleSweep<C>, SimError> {
    let mut samples = Vec::new();
    let mut failures = Vec::new();
    for (config, r) in evaluated {
        match r {
            Ok(stats) => samples.push(Sample { config, stats }),
            Err(e) => failures.push((config, e)),
        }
    }
    if samples.is_empty() {
        // Nothing to rank; surface the first failure.
        return Err(failures.into_iter().next().unwrap().1);
    }
    Ok(FallibleSweep {
        result: finish(samples, delta),
        failures,
    })
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
    fn parallel_sweep_matches_sequential() {
        let configs = [32u32, 64, 128, 256];
        let seq = sweep(&configs, |&c| eval_block_size(c));
        let par = sweep_parallel(&configs, |&c| eval_block_size(c));
        for (a, b) in seq.samples.iter().zip(&par.samples) {
            assert_eq!(a.config, b.config);
            assert_eq!(a.stats.cycles, b.stats.cycles); // determinism
        }
        assert_eq!(seq.best, par.best);
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
        assert!(warm.memo_hit_rate() > 0.0);
        for (a, b) in cold.samples.iter().zip(&warm.samples) {
            assert_eq!(a.stats.cycles, b.stats.cycles);
        }
    }

    #[test]
    #[should_panic(expected = "empty configuration space")]
    fn empty_sweep_panics() {
        let _ = sweep::<u32>(&[], |_| unreachable!());
    }

    /// Evaluator for the fallible sweeps: block size 0 is rejected at
    /// launch, everything else simulates normally.
    fn eval_fallible(threads: u32) -> Result<KernelStats, SimError> {
        if threads == 0 {
            // Reproduce the launch layer's rejection without building a
            // degenerate grid.
            let mut b = KernelBuilder::new("zero");
            let p = b.param();
            let tid = b.tid_x();
            b.st_global(p, 0, tid);
            let k = b.build();
            let mem = DeviceMemory::new(1 << 12);
            return launch(
                &GpuConfig::geforce_8800_gtx(),
                &k,
                LaunchDims {
                    grid: (1, 1),
                    block: (0, 1, 1),
                },
                &[Value::from_u32(0)],
                &mem,
            )
            .map_err(SimError::from);
        }
        Ok(eval_block_size(threads))
    }

    #[test]
    fn fallible_sweep_drops_failures_and_ranks_survivors() {
        let configs = [0u32, 64, 128];
        let r = sweep_fallible(&configs, |&c| eval_fallible(c)).unwrap();
        assert_eq!(r.result.samples.len(), 2);
        assert_eq!(r.failures.len(), 1);
        assert_eq!(r.failures[0].0, 0);
        assert!(matches!(
            r.failures[0].1,
            SimError::Launch(g80_sim::LaunchError::BadBlockDims(_))
        ));
        let par = sweep_parallel_fallible(&configs, |&c| eval_fallible(c)).unwrap();
        assert_eq!(par.result.samples.len(), 2);
        for (a, b) in r.result.samples.iter().zip(&par.result.samples) {
            assert_eq!(a.config, b.config);
            assert_eq!(a.stats.cycles, b.stats.cycles);
        }
    }

    #[test]
    fn fallible_sweep_errors_only_when_all_fail() {
        let r = sweep_fallible(&[0u32, 0], |&c| eval_fallible(c));
        assert!(matches!(
            r,
            Err(SimError::Launch(g80_sim::LaunchError::BadBlockDims(_)))
        ));
    }
}
