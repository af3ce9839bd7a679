//! Figure 4 and Section 4 — the matrix-multiplication optimization study.

use g80_apps::matmul::{MatMul, Variant};
use g80_core::{advise, estimate, kernel_occupancy, Bottleneck, Sample, SweepResult};
use g80_sim::GpuConfig;

/// One measured configuration of Figure 4.
#[derive(Clone, Debug)]
pub struct Fig4Row {
    pub label: String,
    pub gflops: f64,
    pub regs: u32,
    pub blocks_per_sm: u32,
    pub warps_per_sm: u32,
}

/// Reference GFLOPS from the paper's Figure 4 / Section 4 prose, where
/// stated (the figure's bars are read off the chart otherwise).
pub fn paper_fig4_gflops(label: &str) -> Option<f64> {
    match label {
        "not tiled" => Some(10.58),
        "16x16 tiled" => Some(46.49),
        "16x16 tiled+unrolled" => Some(91.14),
        "16x16 tiled+unrolled+prefetch" => Some(87.10),
        _ => None,
    }
}

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
        let paper = paper_fig4_gflops(&r.label)
            .map(|v| format!("{v:.2}"))
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

/// Reproduces the Section 4.1–4.4 optimization walk at size `n` (multiple
/// of 16), including the analytical potential-throughput estimates and the
/// advisor's top recommendation at each step.
pub fn section4(n: u32) -> Vec<Sec4Step> {
    let mm = MatMul { n };
    let (a, b) = mm.generate(42);
    let cfg = GpuConfig::geforce_8800_gtx();
    let steps: [(&str, Variant, f64); 4] = [
        ("4.1 initial (not tiled)", Variant::Naive, 10.58),
        (
            "4.2 16x16 tiling",
            Variant::Tiled {
                tile: 16,
                unroll: false,
            },
            46.49,
        ),
        (
            "4.3 + complete unrolling",
            Variant::Tiled {
                tile: 16,
                unroll: true,
            },
            91.14,
        ),
        ("4.4 + prefetching", Variant::Prefetch { tile: 16 }, 87.10),
    ];
    steps
        .into_iter()
        .map(|(name, v, paper)| {
            let k = mm.kernel(v);
            let (_, stats, _) = mm.run(v, &a, &b);
            let est = estimate(&cfg, &stats);
            let hints = advise(&cfg, &stats);
            Sec4Step {
                name: name.to_string(),
                gflops: stats.gflops(),
                paper_gflops: paper,
                regs: k.regs_per_thread,
                blocks_per_sm: stats.blocks_per_sm,
                bottleneck: est.bottleneck,
                issue_bound: est.issue_bound_gflops,
                bandwidth_bound: est.bandwidth_bound_gflops,
                required_bw: est.required_bandwidth_gbps,
                top_hint: hints.first().map(|h| format!("{:?}", h.kind)),
            }
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
    let cfg = GpuConfig::geforce_8800_gtx();
    let v = Variant::Tiled {
        tile: 16,
        unroll: false,
    };
    // Both forced-register points go down as one two-entry batch.
    let caps = [10u32, 11];
    let preps: Vec<_> = caps
        .iter()
        .map(|&regs| {
            let k = mm.kernel(v).with_forced_regs(regs);
            let mut dev = g80_cuda::Device::new(3 * n * n * 4 + 4096);
            let da = dev.alloc::<f32>((n * n) as usize);
            let db = dev.alloc::<f32>((n * n) as usize);
            let dc = dev.alloc::<f32>((n * n) as usize);
            dev.copy_to_device(&da, &a);
            dev.copy_to_device(&db, &b);
            let params = [da.as_param(), db.as_param(), dc.as_param()];
            (k, dev, params)
        })
        .collect();
    let entries: Vec<g80_cuda::BatchLaunch> = preps
        .iter()
        .map(|(k, dev, params)| g80_cuda::BatchLaunch {
            device: dev,
            kernel: k,
            grid: (n / 16, n / 16),
            block: (16, 16, 1),
            params,
        })
        .collect();
    let results = g80_cuda::launch_batch(&entries);
    let mut steps = caps.iter().zip(results).map(|(&regs, r)| {
        let stats = r.unwrap();
        let est = estimate(&cfg, &stats);
        Sec4Step {
            name: format!("16x16 tiled (rolled) forced to {regs} regs"),
            gflops: stats.gflops(),
            paper_gflops: 0.0,
            regs,
            blocks_per_sm: stats.blocks_per_sm,
            bottleneck: est.bottleneck,
            issue_bound: est.issue_bound_gflops,
            bandwidth_bound: est.bandwidth_bound_gflops,
            required_bw: est.required_bandwidth_gbps,
            top_hint: None,
        }
    });
    let r10 = steps.next().unwrap();
    let r11 = steps.next().unwrap();
    (r10, r11)
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

/// Uses the auto-tuner to search the full (tile, unroll) space, verifying it
/// lands on 16x16 + unrolled (Section 6's "better tools" suggestion).
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
    use super::*;

    #[test]
    fn figure4_shape_holds() {
        let rows = figure4(96);
        let get = |label: &str| rows.iter().find(|r| r.label == label).unwrap().gflops;
        // Unrolling helps at every tile size.
        for t in [4, 8, 12, 16] {
            assert!(
                get(&format!("{t}x{t} tiled+unrolled")) > get(&format!("{t}x{t} tiled")),
                "unroll regression at {t}"
            );
        }
        // 16x16 unrolled wins the paper's configurations by a wide margin;
        // only the beyond-the-paper register-tiled kernel beats it.
        let best = get("16x16 tiled+unrolled");
        for r in &rows {
            if !r.label.contains("register") {
                assert!(best >= r.gflops, "{} beats 16x16 unrolled", r.label);
            }
        }
        assert!(best > 3.0 * get("not tiled"));
        assert!(get("16x16 tiled+register tiling") > best);
        // 4x4 is the worst tiled configuration.
        assert!(get("4x4 tiled") < get("8x8 tiled"));
        assert!(get("4x4 tiled") < get("16x16 tiled"));
    }

    #[test]
    fn section4_walk_matches_paper_story() {
        let steps = section4(128);
        assert_eq!(steps.len(), 4);
        // Naive: memory-bound, needing more bandwidth than the chip has.
        assert_eq!(steps[0].bottleneck, Bottleneck::MemoryBandwidth);
        assert!(steps[0].required_bw > 86.4);
        // Tiled: no longer bandwidth-bound.
        assert!(steps[1].gflops > 2.5 * steps[0].gflops);
        // Unrolled: near the issue roofline, ~2x the rolled version.
        assert!(steps[2].gflops > 1.7 * steps[1].gflops);
        assert_eq!(steps[2].bottleneck, Bottleneck::InstructionIssue);
        // Prefetch: close to the unrolled version (the paper's "difference
        // between the two configurations is only 5%"; at this reduced
        // problem size drain-tail effects widen the band slightly).
        let ratio = steps[3].gflops / steps[2].gflops;
        assert!((0.90..1.15).contains(&ratio), "prefetch ratio {ratio}");
    }

    #[test]
    fn register_cliff_loses_a_block() {
        // The occupancy mechanism reproduces exactly: 10 regs → 3 blocks,
        // 11 → 2. For this issue-bound kernel the *timing* penalty is small
        // (16 warps still hide the latencies in our model; see
        // EXPERIMENTS.md) — the full performance cliff on a latency-bound
        // kernel is asserted in g80-sim's
        // `register_pressure_reduces_occupancy_and_performance` test.
        let (r10, r11) = register_cliff(192);
        assert_eq!(r10.blocks_per_sm, 3);
        assert_eq!(r11.blocks_per_sm, 2);
        assert!(
            r10.gflops > 0.95 * r11.gflops,
            "losing a block must not pay: {} vs {}",
            r10.gflops,
            r11.gflops
        );
    }

    #[test]
    fn strategy_constrained_climb_parks_on_a_local_maximum() {
        // Section 6: "it is also possible to get stuck in local maximums of
        // performance when attempting to follow a particular optimization
        // strategy. These maximums may be significantly lower than the peak
        // achievable performance."
        let (stuck_label, stuck, best_label, best) = local_maximum_demo(96);
        assert!(
            stuck < 0.7 * best,
            "expected a significant local-max gap: {stuck_label} at {stuck:.1} \
             vs {best_label} at {best:.1}"
        );
        // The tile-only strategy stalls inside the rolled family (which
        // rolled tile it parks on depends on problem size), never reaching
        // the unrolled ridge.
        assert!(
            stuck_label.ends_with("tiled"),
            "stuck at {stuck_label}, expected a rolled configuration"
        );
    }

    #[test]
    fn tuner_finds_the_16x16_family() {
        let (label, gflops) = tuner_search(96);
        // With register tiling in the space, the winner is the 16x16
        // register-tiled kernel; the Section 4 optimum is the runner-up.
        assert!(label.contains("16x16"), "tuner picked {label}");
        assert!(gflops > 50.0);
    }
}
