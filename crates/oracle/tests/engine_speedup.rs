//! The product engine against the oracle on three single launches, timed.
//!
//! Each workload runs on both engines, back-to-back pair after pair (odd
//! pairs product first, so neither engine always runs second), memo and
//! dedup off in both: a warm memo cache would replace every timed
//! repetition with a cache replay. Every pair must agree on the canonical
//! `KernelStats` bytes; the reported time of an engine is its minimum over
//! the pairs (the low-noise estimator for a deterministic workload).
//!
//! The headline is the paper's best matmul configuration (16x16 tiled,
//! fully unrolled) at n = 256, which must run at least 2x faster on the
//! product engine. Saxpy (streaming, scheduler- and coalescing-bound) and
//! TPACF (divergent, atomic-heavy) are printed. Ignored by default because
//! it times the host; run it with
//!
//! ```text
//! cargo test --release -p g80-oracle --test engine_speedup -- --ignored --nocapture
//! ```

use g80_apps::matmul::{MatMul, Variant};
use g80_apps::saxpy::Saxpy;
use g80_apps::tpacf::Tpacf;
use g80_sim::{KernelStats, SimConfig, SimContext};
use std::time::Instant;

/// Timed pairs per workload, after one untimed warm-up pair.
const PAIRS: usize = 5;

/// Times `run` on the oracle and the product, asserting that every pair
/// agrees on the canonical stats bytes; prints each engine's minimum
/// wall-clock seconds and returns their ratio, oracle over product.
fn speedup(name: &str, run: &mut dyn FnMut() -> KernelStats) -> f64 {
    let off = SimConfig {
        memo: false,
        dedup: false,
        ..SimConfig::default()
    };
    let arms = [g80_oracle::context(off.clone()), SimContext::new(off)];
    let mut arm = |i: usize| {
        let t0 = Instant::now();
        let bytes = arms[i].enter(|| g80_sim::wire::to_bytes(&run(), 512));
        (t0.elapsed().as_secs_f64(), bytes)
    };
    let [mut oracle_s, mut product_s] = [f64::INFINITY; 2];
    for pair in 0..=PAIRS {
        let [oracle, product] = if pair % 2 == 0 {
            [arm(0), arm(1)]
        } else {
            let product = arm(1);
            [arm(0), product]
        };
        assert!(
            oracle.1 == product.1,
            "{name}: the engines disagree on the canonical KernelStats bytes"
        );
        if pair > 0 {
            oracle_s = oracle_s.min(oracle.0);
            product_s = product_s.min(product.0);
        }
    }
    let speedup = oracle_s / product_s;
    println!("{name:<24}  oracle_s {oracle_s:.6}  product_s {product_s:.6}  speedup {speedup:.2}");
    speedup
}

#[test]
#[ignore = "times the host; run in release with --ignored"]
fn product_engine_outruns_the_oracle() {
    let mm = MatMul { n: 256 };
    let (a, b) = mm.generate(42);
    let tiled16u = Variant::Tiled {
        tile: 16,
        unroll: true,
    };
    let headline = speedup("matmul_256_tiled16u", &mut || mm.run(tiled16u, &a, &b).1);
    let sx = Saxpy {
        n: 1 << 18,
        alpha: 2.0,
    };
    let (x, y) = sx.generate(42);
    speedup("saxpy_262144", &mut || sx.run(&x, &y).1);
    let tp = Tpacf { n: 1024 };
    let sky = tp.generate(42);
    speedup("tpacf_1024", &mut || tp.run(&sky).1);
    assert!(
        headline >= 2.0,
        "matmul_256_tiled16u: product engine only {headline:.2}x the oracle, want >= 2"
    );
}
