//! The Section 6 future-work experiment: "we are exploring methods to
//! preserve or enhance performance of applications when shifts in the
//! underlying architecture or runtime occur."
//!
//! We run the matmul configuration space on three machines — the paper's
//! 8800 GTX, the narrower 8800 GTS, and a GT200-generation part (more SMs,
//! doubled register file, relaxed coalescing) — and ask two questions:
//!
//! 1. does the hand-tuned G80 optimum survive the shift? (mostly: the
//!    16×16 + unrolled family stays on top);
//! 2. which *lessons* change? (the naive kernel's coalescing penalty
//!    shrinks dramatically on the CC 1.2-style coalescer — exactly the
//!    kind of assumption drift the paper warns about).

use g80_apps::matmul::{MatMul, Variant};
use g80_sim::GpuConfig;

use crate::matmul_study::launch_matmuls;

/// One architecture's sweep results.
#[derive(Clone, Debug)]
pub struct ArchResult {
    pub arch: &'static str,
    pub peak_gflops: f64,
    /// (variant label, achieved GFLOPS), in sweep order.
    pub results: Vec<(String, f64)>,
    /// The winning configuration.
    pub best: String,
}

/// Sweeps the matmul config space across the three machines, one batched
/// launch per machine (batches cannot mix configs).
pub fn run(n: u32) -> Vec<ArchResult> {
    let mm = MatMul { n };
    let (a, b) = mm.generate(42);
    let variants = [
        Variant::Naive,
        Variant::Tiled {
            tile: 8,
            unroll: true,
        },
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
    let kernels = variants.map(|v| (mm.kernel(v), v.block_edge()));
    [
        ("GeForce 8800 GTX (G80)", GpuConfig::geforce_8800_gtx()),
        ("GeForce 8800 GTS (12 SMs)", GpuConfig::geforce_8800_gts()),
        ("GT200-class (30 SMs, CC1.2)", GpuConfig::gtx280_like()),
    ]
    .into_iter()
    .map(|(arch, cfg)| {
        let stats = launch_matmuls(&cfg, n, &kernels, &a, &b);
        let results: Vec<(String, f64)> = variants
            .iter()
            .zip(stats)
            .map(|(v, s)| (v.label(), s.gflops()))
            .collect();
        let best = results
            .iter()
            .max_by(|x, y| x.1.total_cmp(&y.1))
            .unwrap()
            .0
            .clone();
        ArchResult {
            arch,
            peak_gflops: cfg.peak_mad_gflops(),
            results,
            best,
        }
    })
    .collect()
}

pub fn render(rows: &[ArchResult]) -> String {
    let mut s = String::new();
    s.push_str("Architecture-shift study (Section 6 future work): SGEMM across machines\n\n");
    for r in rows {
        s.push_str(&format!("{} — peak {:.0} GFLOPS\n", r.arch, r.peak_gflops));
        for (label, gflops) in &r.results {
            let eff = gflops / r.peak_gflops * 100.0;
            s.push_str(&format!(
                "  {label:<36} {gflops:>7.2} GFLOPS ({eff:>4.1}% of peak)\n"
            ));
        }
        s.push_str(&format!("  -> best: {}\n\n", r.best));
    }
    s
}

#[cfg(test)]
mod tests {
    use crate::fidelity::assert_rows;

    #[test]
    fn optimum_survives_architecture_shifts() {
        assert_rows(&["arch.optimum_stays"]);
    }

    #[test]
    fn relaxed_coalescing_softens_the_naive_penalty() {
        assert_rows(&["arch.naive_recovers"]);
    }

    #[test]
    fn more_sms_scale_the_absolute_numbers() {
        assert_rows(&["arch.gts_slower", "arch.gt200_faster"]);
    }
}
