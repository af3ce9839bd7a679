//! The Section 4 experience, interactively: walk matrix multiplication
//! through the paper's optimizations, printing what the analytical model
//! and the advisor say at each step, then let the auto-tuner search the
//! configuration space itself.
//!
//! ```sh
//! cargo run --release --example matmul_tuning
//! ```

use g80::apps::matmul::{MatMul, Variant};
use g80::sim::GpuConfig;
use g80::tune::{explain, sweep};

fn main() {
    let n = 192;
    let mm = MatMul { n };
    let (a, b) = mm.generate(7);
    let cfg = GpuConfig::geforce_8800_gtx();

    println!("== The Section 4 walk (SGEMM, {n}x{n}x{n}) ==\n");
    for (step, v) in [
        ("start: one thread per element, no reuse", Variant::Naive),
        (
            "tile into shared memory (16x16)",
            Variant::Tiled {
                tile: 16,
                unroll: false,
            },
        ),
        (
            "fully unroll the dot-product loop",
            Variant::Tiled {
                tile: 16,
                unroll: true,
            },
        ),
        ("prefetch the next tile", Variant::Prefetch { tile: 16 }),
    ] {
        let (_, stats, _) = mm.run(v, &a, &b);
        println!("{step} ({} regs)", stats.regs_per_thread);
        println!("{}\n", explain(&cfg, &stats));
    }

    println!("== Auto-tuner over the whole configuration space ==\n");
    let mut configs = vec![Variant::Naive];
    for tile in [4u32, 8, 12, 16] {
        for unroll in [false, true] {
            configs.push(Variant::Tiled { tile, unroll });
        }
    }
    configs.push(Variant::Prefetch { tile: 16 });
    let result = sweep(&configs, |v| mm.run(*v, &a, &b).1);
    for s in result.ranked() {
        println!("  {:36} {:6.2} GFLOPS", s.config.label(), s.stats.gflops());
    }
    println!(
        "\ntuner's pick: {} — the 16x16 tiled + fully-unrolled family the paper \
         hand-derived in Section 4 (prefetch and plain unrolled are within a few \
         percent of each other, here as there).",
        result.best_sample().config.label()
    );
}
