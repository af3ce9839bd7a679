//! Figure 4 and Section 4 — the matrix-multiplication optimization study.

use g80_apps::matmul::{MatMul, Variant};
use g80_core::{advise, estimate, kernel_occupancy, Bottleneck, Sample, SweepResult};
use g80_cuda::{BatchLaunch, Device};
use g80_isa::Kernel;
use g80_sim::{GpuConfig, KernelStats};

use crate::fidelity;

/// One measured configuration of Figure 4.
#[derive(Clone, Debug)]
pub struct Fig4Row {
    pub label: String,
    pub gflops: f64,
    pub regs: u32,
    pub blocks_per_sm: u32,
    pub warps_per_sm: u32,
}

/// The Section 4.1–4.4 steps, each with the fidelity row that holds the
/// GFLOPS the paper's prose quotes for it (Figure 4's other bars are read
/// off the chart).
const SEC4_STEPS: [(&str, Variant, &str); 4] = [
    ("4.1 initial (not tiled)", Variant::Naive, "sec4.naive"),
    (
        "4.2 16x16 tiling",
        Variant::Tiled {
            tile: 16,
            unroll: false,
        },
        "sec4.tiled",
    ),
    (
        "4.3 + complete unrolling",
        Variant::Tiled {
            tile: 16,
            unroll: true,
        },
        "sec4.unrolled",
    ),
    (
        "4.4 + prefetching",
        Variant::Prefetch { tile: 16 },
        "sec4.prefetch",
    ),
];

/// Runs the Figure 4 sweep: {not tiled} ∪ {4,8,12,16}×{tiled, unrolled}.
/// `n` must be divisible by 48 (so 12×12 tiles fit); the paper used 4096 on
/// silicon — GFLOPS computed from simulated cycles is size-stable, so a
/// smaller lattice tells the same story.
pub fn figure4(n: u32) -> Vec<Fig4Row> {
    assert_eq!(n % 48, 0, "n must be divisible by 4, 8, 12 and 16");
    let mm = MatMul { n };
    let (a, b) = mm.generate(42);
    let mut variants = vec![Variant::Naive];
    for tile in [4u32, 8, 12, 16] {
        variants.push(Variant::Tiled {
            tile,
            unroll: false,
        });
        variants.push(Variant::Tiled { tile, unroll: true });
    }
    // One step beyond the paper's figure: the companion study's register
    // tiling ([22]).
    variants.push(Variant::RegTiled { tile: 16 });
    let cfg = GpuConfig::geforce_8800_gtx();
    // All eleven configurations go down as one batch: the launches run
    // concurrently on the worker pool.
    let results = mm.run_batch(&variants, &a, &b);
    variants
        .into_iter()
        .zip(results)
        .map(|(v, (_, stats, _))| {
            let k = mm.kernel(v);
            let (sx, sy) = v.block_shape();
            let occ = kernel_occupancy(&cfg, &k, sx * sy);
            Fig4Row {
                label: v.label(),
                gflops: stats.gflops(),
                regs: k.regs_per_thread,
                blocks_per_sm: occ.blocks_per_sm,
                warps_per_sm: occ.warps_per_sm,
            }
        })
        .collect()
}

pub fn render_figure4(rows: &[Fig4Row]) -> String {
    let mut s = String::new();
    s.push_str("Figure 4: matrix multiplication kernel performance\n");
    s.push_str(&format!(
        "{:<34} {:>8} {:>6} {:>9} {:>8} {:>12}\n",
        "configuration", "GFLOPS", "regs", "blocks/SM", "warps/SM", "paper GFLOPS"
    ));
    for r in rows {
        let paper = SEC4_STEPS
            .iter()
            .find(|(_, v, _)| v.label() == r.label)
            .map(|&(_, _, id)| format!("{:.2}", fidelity::paper(id)))
            .unwrap_or_else(|| "~".into());
        s.push_str(&format!(
            "{:<34} {:>8.2} {:>6} {:>9} {:>8} {:>12}\n",
            r.label, r.gflops, r.regs, r.blocks_per_sm, r.warps_per_sm, paper
        ));
        // Crude bar chart, 2 GFLOPS per tick.
        let ticks = (r.gflops / 2.0).round() as usize;
        s.push_str(&format!("  {}\n", "#".repeat(ticks)));
    }
    s
}

/// One step of the Section 4 narrative.
#[derive(Clone, Debug)]
pub struct Sec4Step {
    pub name: String,
    pub gflops: f64,
    pub paper_gflops: f64,
    pub regs: u32,
    pub blocks_per_sm: u32,
    pub bottleneck: Bottleneck,
    pub issue_bound: f64,
    pub bandwidth_bound: f64,
    pub required_bw: f64,
    pub top_hint: Option<String>,
}

impl Sec4Step {
    /// A step from its launch's counters and the Section 4 estimate.
    fn new(
        name: String,
        regs: u32,
        paper_gflops: f64,
        stats: &KernelStats,
        top_hint: Option<String>,
    ) -> Sec4Step {
        let est = estimate(&GpuConfig::geforce_8800_gtx(), stats);
        Sec4Step {
            name,
            gflops: stats.gflops(),
            paper_gflops,
            regs,
            blocks_per_sm: stats.blocks_per_sm,
            bottleneck: est.bottleneck,
            issue_bound: est.issue_bound_gflops,
            bandwidth_bound: est.bandwidth_bound_gflops,
            required_bw: est.required_bandwidth_gbps,
            top_hint,
        }
    }
}

/// Reproduces the Section 4.1–4.4 optimization walk at size `n` (multiple
/// of 16), including the analytical potential-throughput estimates and the
/// advisor's top recommendation at each step.
pub fn section4(n: u32) -> Vec<Sec4Step> {
    let mm = MatMul { n };
    let (a, b) = mm.generate(42);
    let cfg = GpuConfig::geforce_8800_gtx();
    SEC4_STEPS
        .into_iter()
        .map(|(name, v, id)| {
            let regs = mm.kernel(v).regs_per_thread;
            let (_, stats, _) = mm.run(v, &a, &b);
            let hint = advise(&cfg, &stats)
                .first()
                .map(|h| format!("{:?}", h.kind));
            Sec4Step::new(name.into(), regs, fidelity::paper(id), &stats, hint)
        })
        .collect()
}

/// The Section 4.2 register-pressure ablation: the *rolled* tiled kernel
/// (whose barrier-paired global loads make it latency-sensitive) forced to
/// 10 vs 11 registers per thread — "each SM executes only two blocks
/// simultaneously, which reduces performance".
pub fn register_cliff(n: u32) -> (Sec4Step, Sec4Step) {
    let mm = MatMul { n };
    let (a, b) = mm.generate(42);
    let tiled = mm.kernel(Variant::Tiled {
        tile: 16,
        unroll: false,
    });
    // Both forced-register points go down as one two-entry batch.
    let kernels = [10, 11].map(|regs| (tiled.clone().with_forced_regs(regs), 16));
    let stats = launch_matmuls(&GpuConfig::geforce_8800_gtx(), n, &kernels, &a, &b);
    let [r10, r11] = [0, 1].map(|i| {
        let regs = kernels[i].0.regs_per_thread;
        let name = format!("16x16 tiled (rolled) forced to {regs} regs");
        Sec4Step::new(name, regs, 0.0, &stats[i], None)
    });
    (r10, r11)
}

/// Runs each `(kernel, block edge)` over the `n`×`n` product of `a` and
/// `b`, each on its own fresh `cfg` device, as one batched launch.
pub(crate) fn launch_matmuls(
    cfg: &GpuConfig,
    n: u32,
    kernels: &[(Kernel, u32)],
    a: &[f32],
    b: &[f32],
) -> Vec<KernelStats> {
    let preps: Vec<_> = kernels
        .iter()
        .map(|_| {
            let mut dev = Device::with_config(cfg.clone(), 3 * n * n * 4 + 4096);
            let da = dev.alloc::<f32>((n * n) as usize);
            let db = dev.alloc::<f32>((n * n) as usize);
            let dc = dev.alloc::<f32>((n * n) as usize);
            dev.copy_to_device(&da, a);
            dev.copy_to_device(&db, b);
            (dev, [da.as_param(), db.as_param(), dc.as_param()])
        })
        .collect();
    let entries: Vec<BatchLaunch> = kernels
        .iter()
        .zip(&preps)
        .map(|((kernel, t), (device, params))| BatchLaunch {
            device,
            kernel,
            grid: (n / t, n / t),
            block: (*t, *t, 1),
            params,
        })
        .collect();
    kernels
        .iter()
        .zip(g80_cuda::launch_batch(&entries))
        .map(|((k, _), r)| r.unwrap_or_else(|e| panic!("{} launch: {e}", k.name)))
        .collect()
}

pub fn render_section4(steps: &[Sec4Step], cliff: &(Sec4Step, Sec4Step)) -> String {
    let mut s = String::new();
    s.push_str("Section 4: matrix multiplication optimization walk (n x n x n SGEMM)\n");
    s.push_str(&format!(
        "{:<28} {:>8} {:>8} {:>5} {:>7} {:>9} {:>9} {:>9}  {:<18} {}\n",
        "step",
        "GFLOPS",
        "paper",
        "regs",
        "blk/SM",
        "issue-bnd",
        "bw-bound",
        "req GB/s",
        "bottleneck",
        "advisor"
    ));
    for st in steps {
        s.push_str(&format!(
            "{:<28} {:>8.2} {:>8.2} {:>5} {:>7} {:>9.1} {:>9.1} {:>9.0}  {:<18} {}\n",
            st.name,
            st.gflops,
            st.paper_gflops,
            st.regs,
            st.blocks_per_sm,
            st.issue_bound,
            st.bandwidth_bound.min(9999.0),
            st.required_bw,
            format!("{:?}", st.bottleneck),
            st.top_hint.as_deref().unwrap_or("-"),
        ));
    }
    s.push_str("\nSection 4.2 register-pressure cliff (same kernel, forced registers):\n");
    for st in [&cliff.0, &cliff.1] {
        s.push_str(&format!(
            "  {:<38} {:>8.2} GFLOPS  {} blocks/SM\n",
            st.name, st.gflops, st.blocks_per_sm
        ));
    }
    s
}

/// Uses the auto-tuner to search the full (tile, unroll) space (Section 6's
/// "better tools" suggestion); `sec6.tuner_optimum` pins where it lands.
pub fn tuner_search(n: u32) -> (String, f64) {
    let mm = MatMul { n };
    let (a, b) = mm.generate(42);
    let configs = Variant::tuner_sweep();
    // Exhaustive sweep as one batched launch instead of serial runs.
    let evals = mm.run_batch(&configs, &a, &b);
    let result = SweepResult::from_samples(
        configs
            .iter()
            .zip(evals)
            .map(|(&config, (_, stats, _))| Sample { config, stats })
            .collect(),
    );
    let best = result.best_sample();
    (best.config.label(), best.stats.gflops())
}

/// The Section 6 "local maximums of performance" demonstration: a
/// hill-climber that follows one optimization strategy (tune the tile size,
/// never revisit the unrolling decision) parks on a local maximum far below
/// the exhaustive sweep's optimum.
///
/// Returns (stuck-at label, stuck-at GFLOPS, global-best label, global-best
/// GFLOPS).
pub fn local_maximum_demo(n: u32) -> (String, f64, String, f64) {
    use g80_core::hill_climb;
    let mm = MatMul { n };
    let (a, b) = mm.generate(42);
    let eval = |v: &Variant| mm.run(*v, &a, &b).1;

    // Strategy-constrained neighbourhood: tile size only, rolled loops.
    let tiles = [4u32, 8, 12, 16];
    let path = hill_climb(
        Variant::Tiled {
            tile: 4,
            unroll: false,
        },
        |v| {
            let Variant::Tiled { tile, unroll } = *v else {
                return vec![];
            };
            let i = tiles.iter().position(|&t| t == tile).unwrap();
            let mut out = Vec::new();
            if i > 0 {
                out.push(Variant::Tiled {
                    tile: tiles[i - 1],
                    unroll,
                });
            }
            if i + 1 < tiles.len() {
                out.push(Variant::Tiled {
                    tile: tiles[i + 1],
                    unroll,
                });
            }
            out
        },
        eval,
    );
    let stuck = path.last().unwrap();

    let (best_label, best_gflops) = tuner_search(n);
    (
        stuck.config.label(),
        stuck.stats.gflops(),
        best_label,
        best_gflops,
    )
}

#[cfg(test)]
mod tests {
    use crate::fidelity::assert_rows;

    #[test]
    fn figure4_shape_holds() {
        assert_rows(&[
            "fig4.unroll_helps",
            "fig4.optimum_16x16",
            "fig4.optimum_over_naive",
            "fig4.register_tiling",
            "fig4.4x4_slowest_tiling",
        ]);
    }

    #[test]
    fn section4_walk_matches_paper_story() {
        assert_rows(&[
            "sec4.naive_bottleneck",
            "sec4.naive_required_gbps",
            "sec4.tiling_ratio",
            "sec4.unroll_ratio",
            "sec4.unrolled_bottleneck",
            "sec4.deviation_prefetch",
        ]);
    }

    #[test]
    fn register_cliff_loses_a_block() {
        assert_rows(&[
            "sec4.cliff_10_regs",
            "sec4.cliff_11_regs",
            "sec4.deviation_cliff_cost",
        ]);
    }

    #[test]
    fn strategy_constrained_climb_parks_on_a_local_maximum() {
        assert_rows(&["sec6.local_max_gap", "sec6.local_max_rolled"]);
    }

    #[test]
    fn tuner_finds_the_16x16_family() {
        assert_rows(&["sec6.tuner_optimum", "sec6.tuner_gflops"]);
    }
}
