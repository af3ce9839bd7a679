//! Counts taken at the layer boundaries: simulated quantities summed from
//! the `KernelStats` the product returns, and deltas of its process-wide
//! counters around a fixed window of ops. Both repeat exactly for one
//! commit and one seed, so two commits compare exactly.

use g80_apps::matmul::Variant;
use g80_sim::{
    memo_counters, net_counters, row_counters, KernelStats, LaunchReport, MemoCounters,
    NetCounters, RowCounters, Served, StallReason,
};
use std::collections::BTreeMap;

pub type Metrics = BTreeMap<String, f64>;

pub fn put(m: &mut Metrics, name: &str, value: f64) {
    m.insert(name.to_string(), value);
}

/// The Section 4 walk, in the paper's order.
pub const WALK: [Variant; 4] = [
    Variant::Naive,
    Variant::Tiled {
        tile: 16,
        unroll: false,
    },
    Variant::Tiled {
        tile: 16,
        unroll: true,
    },
    Variant::Prefetch { tile: 16 },
];

/// GFLOPS the paper reports for the four walk steps.
const PAPER_GFLOPS: [f64; 4] = [10.58, 46.49, 91.14, 87.10];

/// Mean |simulated − paper| ÷ paper over the four walk steps, in percent.
/// Simulated, so it repeats exactly; a model change moves it.
pub fn paper_err_pct(walk_gflops: &[f64]) -> f64 {
    assert_eq!(walk_gflops.len(), PAPER_GFLOPS.len());
    100.0
        * walk_gflops
            .iter()
            .zip(PAPER_GFLOPS)
            .map(|(sim, paper)| (sim - paper).abs() / paper)
            .sum::<f64>()
        / PAPER_GFLOPS.len() as f64
}

/// Runs the walk once at n=256 and returns `paper_err_pct`: the model's
/// fidelity on the commit under test, for workloads whose own ops do not
/// include the walk.
pub fn fidelity_walk(seed: u64) -> f64 {
    let mm = g80_apps::matmul::MatMul { n: 256 };
    let (a, b) = mm.generate(seed);
    let gflops: Vec<f64> = WALK.iter().map(|&v| mm.run(v, &a, &b).1.gflops()).collect();
    paper_err_pct(&gflops)
}

/// Canonical bytes of a `KernelStats` (the report codec with the
/// process-wide snapshots zeroed), digested: equal digests mean
/// bit-identical stats.
pub fn stats_digest(stats: &KernelStats) -> u64 {
    let bytes = LaunchReport {
        stats: stats.clone(),
        served: Served::Simulated,
        counters: MemoCounters::default(),
        rows: RowCounters::default(),
        net: NetCounters::default(),
    }
    .encode();
    crate::stats::digest_words(bytes.iter().map(|&b| b as u32))
}

/// Modelled-component tallies summed over the launches of a window.
#[derive(Default)]
pub struct SimCounts {
    warp_insts: u64,
    cycles: u64,
    coalesced: u64,
    uncoalesced: u64,
    smem_conflict_cycles: u64,
    divergent_branches: u64,
    const_hits: u64,
    const_misses: u64,
    tex_hits: u64,
    tex_misses: u64,
    stall: [u64; 5],
}

const STALLS: [(StallReason, &str); 5] = [
    (StallReason::Memory, "memory"),
    (StallReason::AluDependency, "alu"),
    (StallReason::Barrier, "barrier"),
    (StallReason::IssueBusy, "issue_busy"),
    (StallReason::Drain, "drain"),
];

fn share(hit: u64, miss: u64) -> f64 {
    if hit + miss == 0 {
        0.0
    } else {
        hit as f64 / (hit + miss) as f64
    }
}

impl SimCounts {
    pub fn add(&mut self, s: &KernelStats) {
        self.warp_insts += s.warp_instructions;
        self.cycles += s.cycles;
        self.coalesced += s.coalesced_half_warps;
        self.uncoalesced += s.uncoalesced_half_warps;
        self.smem_conflict_cycles += s.smem_conflict_extra_cycles;
        self.divergent_branches += s.divergent_branches;
        self.const_hits += s.const_hits;
        self.const_misses += s.const_misses;
        self.tex_hits += s.tex_hits;
        self.tex_misses += s.tex_misses;
        for (i, (reason, _)) in STALLS.iter().enumerate() {
            self.stall[i] += s.stall_cycles.get(reason).copied().unwrap_or(0);
        }
    }

    pub fn emit(&self, m: &mut Metrics) {
        put(m, "sim.warp_insts", self.warp_insts as f64);
        put(m, "sim.cycles", self.cycles as f64);
        put(
            m,
            "sim.coalesced_ratio",
            share(self.coalesced, self.uncoalesced),
        );
        put(
            m,
            "sim.smem_conflict_cycles",
            self.smem_conflict_cycles as f64,
        );
        put(m, "sim.divergent_branches", self.divergent_branches as f64);
        put(
            m,
            "sim.const_hit_ratio",
            share(self.const_hits, self.const_misses),
        );
        put(
            m,
            "sim.tex_hit_ratio",
            share(self.tex_hits, self.tex_misses),
        );
        for (i, (_, name)) in STALLS.iter().enumerate() {
            put(m, &format!("sim.stall_cycles.{name}"), self.stall[i] as f64);
        }
    }
}

/// Snapshot of the product's process-wide counters; `emit_since` turns
/// two snapshots around a window into the window's counts.
#[derive(Copy, Clone)]
pub struct Globals {
    memo: MemoCounters,
    rows: RowCounters,
    net: NetCounters,
}

impl Globals {
    pub fn now() -> Self {
        Globals {
            memo: memo_counters(),
            rows: row_counters(),
            net: net_counters(),
        }
    }

    pub fn emit_since(&self, before: &Globals, m: &mut Metrics) {
        let memo = self.memo;
        let b = before.memo;
        let (hits, misses) = (memo.hits - b.hits, memo.misses - b.misses);
        put(m, "sim.memo_hits", hits as f64);
        put(m, "sim.memo_misses", misses as f64);
        put(m, "sim.memo_hit_ratio", share(hits, misses));
        let simulated = memo.dedup_sim_blocks - b.dedup_sim_blocks;
        let replayed = memo.dedup_fast_blocks - b.dedup_fast_blocks;
        put(m, "sim.blocks_simulated", simulated as f64);
        put(m, "sim.blocks_replayed", replayed as f64);
        put(
            m,
            "sim.dedup_fallbacks",
            (memo.dedup_fallbacks - b.dedup_fallbacks) as f64,
        );
        put(m, "sim.replay_ratio", share(replayed, simulated));
        let rows = self.rows.since(&before.rows);
        put(m, "sim.rows_uniform", rows.uniform as f64);
        put(m, "sim.rows_affine", rows.affine as f64);
        put(m, "sim.rows_full", rows.full as f64);
        put(
            m,
            "sim.rows_shaped_ratio",
            share(rows.uniform + rows.affine, rows.full),
        );
        let net = self.net.since(&before.net);
        put(
            m,
            "serve.net_retries",
            (net.frames_retried + net.reconnects) as f64,
        );
    }
}
