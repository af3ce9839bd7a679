//! Determinism across worker counts: with `G80_SIM_THREADS=1` the pool has
//! a single worker (plus the participating scope owner), and every
//! simulated statistic must still match the reference engine bit for bit.
//! This binary owns its process, so setting the variable before the pool's
//! first use is safe — worker count is latched lazily on first launch. The
//! default-pool equivalent of this comparison runs in `golden_stats.rs`; CI's
//! environment leg also runs the whole suite under `G80_SIM_THREADS=1`.

mod common;

use g80::apps::matmul::{MatMul, Variant};
use g80::sim::{pool, SimConfig};
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};

/// Every test here calls this first: it must happen before anything
/// touches the pool in this process.
fn one_worker() {
    std::env::set_var("G80_SIM_THREADS", "1");
}

#[test]
fn single_worker_pool_matches_reference_engine() {
    one_worker();

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

/// With one worker and the owner, a chain of tasks each spawning the next
/// runs to its end, beside tasks that fan out, before the scope returns.
#[test]
fn spawning_works_at_one_worker() {
    one_worker();
    assert_eq!(pool::worker_count(), 1);
    fn chain<'s>(s: &'s pool::Scope<'s, '_>, left: u64, sum: &'s AtomicU64) {
        sum.fetch_add(left, SeqCst);
        if left > 0 {
            s.spawn(move || chain(s, left - 1, sum));
        }
    }
    let (chained, fanned) = (AtomicU64::new(0), AtomicU64::new(0));
    pool::scope(|s| {
        s.spawn(|| chain(s, 64, &chained));
        for i in 0..16 {
            let fanned = &fanned;
            s.spawn(move || {
                for j in 0..4 {
                    s.spawn(move || {
                        fanned.fetch_add(i * 4 + j, SeqCst);
                    });
                }
            });
        }
    });
    assert_eq!(chained.load(SeqCst), (0..=64).sum());
    assert_eq!(fanned.load(SeqCst), (0..64).sum());
}
