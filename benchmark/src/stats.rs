//! Sample statistics, the seeded generator, and the result every workload
//! hands back.

use std::collections::BTreeMap;

/// Median of the samples (sorts in place); 0 for an empty set, which is
/// how a per-layer timing reads on a workload that never calls the layer.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of ascending-sorted samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// splitmix64: every input the benchmark generates derives from `--seed`
/// through this, so one seed gives one set of inputs on every host.
pub struct Rng(pub u64);

impl Rng {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// FNV-1a over words: the digest later responses and revisits are checked
/// against (bit-identity without keeping every output around).
pub fn digest_words(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

pub fn digest_f32(v: &[f32]) -> u64 {
    digest_words(v.iter().map(|x| x.to_bits()))
}

/// `VmHWM` of this process in MB.
fn vm_hwm_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restarts the kernel's high-water mark of this process's resident set
/// (`echo 5 > /proc/self/clear_refs`). Where the write is refused the mark
/// keeps accumulating and every reading is the peak so far.
fn reset_vm_hwm() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// One slice of the timed phase, the same work every time: a walk
/// generation, a suite pass, a tuner generation, or one client's schedule
/// block of `serve_mix`. Rates are medians over rounds, so a burst of
/// interference on a shared host moves a few rounds, not the metric.
pub struct Round {
    pub ops: u64,
    /// Σ op spans of the round (serial workloads) or its wall (`serve_mix`).
    pub seconds: f64,
    /// Simulated warp instructions in the `KernelStats` the ops returned.
    pub warp_insts: u64,
}

/// What the timed phase of a run produced.
#[derive(Default)]
pub struct Phase {
    /// One entry per verified-or-failed op, ms.
    pub op_ms: Vec<f64>,
    rounds: Vec<Round>,
    /// `VmHWM` readings taken by `sample_rss`, MB.
    rss_mb: Vec<f64>,
    pub failed: u64,
    /// First few failure descriptions, for the result file.
    pub failures: Vec<String>,
}

impl Phase {
    /// Opens the timed phase: memory from here on is the ops' own.
    pub fn start() -> Self {
        reset_vm_hwm();
        Phase::default()
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 16 {
            self.failures.push(what);
        }
    }

    pub fn end_round(&mut self, round: Round) {
        self.rounds.push(round);
    }

    /// Reads the peak resident set since the last reading and restarts the
    /// mark. Only `suite_table3` calls this, once per pass: its twelve apps
    /// share the pool, so which buffers coexist — and a pass's peak — is up
    /// to the scheduler, and the median over passes drops the one pass in
    /// five that peaks 50 % higher. The other workloads allocate in one
    /// order every time and report the whole phase's peak.
    pub fn sample_rss(&mut self) {
        self.rss_mb.push(vm_hwm_mb());
        reset_vm_hwm();
    }

    fn median_rate(&self, per_round: impl Fn(&Round) -> f64) -> f64 {
        median(&mut self.rounds.iter().map(per_round).collect::<Vec<_>>())
    }

    pub fn into_outcome(
        self,
        metrics: BTreeMap<String, f64>,
        clients: usize,
        input_digest: u64,
    ) -> Outcome {
        Outcome {
            attempted: self.op_ms.len() as u64,
            failed: self.failed,
            failures: self.failures,
            metrics,
            clients,
            input_digest,
        }
    }
}

/// A finished run of one workload in one mode.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Metric name → value; units come from the spec tables.
    pub metrics: BTreeMap<String, f64>,
    /// Load-generating threads/connections the workload used.
    pub clients: usize,
    /// Digest of the first generated inputs: two seeds must differ here,
    /// and in nothing that counts as a failure.
    pub input_digest: u64,
}

/// The end-to-end metrics every workload reports the same way.
/// `tail` is the workload's tail percentile: the highest of p50/p75/p95
/// that keeps at least ten samples beyond it at the run's op count.
pub fn end_to_end(
    phase: &Phase,
    tail: f64,
    setup_s: &mut [f64],
    paper_err_pct: f64,
) -> BTreeMap<String, f64> {
    let mut sorted = phase.op_ms.clone();
    sorted.sort_unstable_by(f64::total_cmp);
    let attempted = phase.op_ms.len() as f64;
    let verified_share = (attempted - phase.failed as f64).max(0.0) / attempted;
    let mut m = BTreeMap::new();
    m.insert(
        "ops_per_s".to_string(),
        verified_share * phase.median_rate(|r| r.ops as f64 / r.seconds),
    );
    m.insert("op_p50_ms".to_string(), percentile(&sorted, 0.50));
    m.insert("op_tail_ms".to_string(), percentile(&sorted, tail));
    m.insert(
        "sim_mwips".to_string(),
        phase.median_rate(|r| r.warp_insts as f64 / 1e6 / r.seconds),
    );
    let peak_rss_mb = if phase.rss_mb.is_empty() {
        vm_hwm_mb()
    } else {
        median(&mut phase.rss_mb.clone())
    };
    m.insert("peak_rss_mb".to_string(), peak_rss_mb);
    m.insert("paper_err_pct".to_string(), paper_err_pct);
    m.insert("setup_s".to_string(), median(setup_s));
    m
}
