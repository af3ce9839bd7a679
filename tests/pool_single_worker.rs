//! Determinism across worker counts: with `G80_SIM_THREADS=1` the pool has
//! a single worker (plus the participating scope owner), and every
//! simulated statistic must still match the reference engine bit for bit.
//! This binary owns its process, so setting the variable before the pool's
//! first use is safe — worker count is latched lazily on first launch. The
//! default-pool equivalent of this comparison runs in `golden_stats.rs`; CI's
//! environment leg also runs the whole suite under `G80_SIM_THREADS=1`.

mod common;

use g80::apps::matmul::{MatMul, Variant};
use g80::sim::SimConfig;

#[test]
fn single_worker_pool_matches_reference_engine() {
    // Must happen before anything touches the pool in this process.
    std::env::set_var("G80_SIM_THREADS", "1");

    let mm = MatMul { n: 64 };
    let (a, b) = mm.generate(5);
    let variants = [
        Variant::Naive,
        Variant::Tiled {
            tile: 16,
            unroll: true,
        },
        Variant::RegTiled { tile: 16 },
    ];

    let oracle = g80_oracle::context(SimConfig::default());
    let reference: Vec<_> = oracle.enter(|| variants.iter().map(|&v| mm.run(v, &a, &b)).collect());

    let pooled_single = mm.run_batch(&variants, &a, &b);

    for ((rc, rs, _), (pc, ps, _)) in reference.iter().zip(&pooled_single) {
        assert_eq!(rc, pc, "results differ under a single-worker pool");
        assert_eq!(rs.cycles, ps.cycles);
        assert_eq!(rs.warp_instructions, ps.warp_instructions);
        assert_eq!(rs.stall_cycles, ps.stall_cycles);
        assert_eq!(rs.global_bytes, ps.global_bytes);
    }

    // The tuner's sweep (nine variants at n=48, one pool task per miss on
    // the one worker): a batch equals nine single launches, simulated and
    // replayed from the memo alike. `witness_dedup.rs` makes the same
    // comparison on the default pool.
    common::assert_batch_equals_singles(6, &SimConfig::default());
}
