//! Shared by the integration-test binaries that `mod common;` it.
#![allow(dead_code)] // each binary uses its own subset

use g80::apps::matmul::{MatMul, Variant};
use g80::cuda::Timeline;
use g80::sim::wire::{encode_stats, Enc};
use g80::sim::{clear_memo_cache, memo_counters, reset_memo_counters, KernelStats, MemoCounters};

/// Canonical bytes of a `KernelStats` — what the memo, disk and serve tiers
/// store, so equal bytes means equal in every field and everywhere
/// downstream.
pub fn stats_bytes(stats: &KernelStats) -> Vec<u8> {
    let mut e = Enc(Vec::new());
    encode_stats(&mut e, stats);
    e.0
}

pub fn bits(v: &[f32]) -> impl Iterator<Item = u32> + '_ {
    v.iter().map(|x| x.to_bits())
}

/// One pass over the tuner's sweep: its results in sweep order and the memo
/// counters read right after it (zeroed before the singles and again before
/// the cold batch, so the warm batch's include the cold one's).
pub struct SweepPass {
    pub runs: Vec<(Vec<f32>, KernelStats, Timeline)>,
    pub counts: MemoCounters,
}

/// A batch is nine single launches: at n=48, `run_batch` of
/// [`Variant::tuner_sweep`] equals nine `run` calls in the canonical stats
/// bytes and in output bits, on an empty memo (cold) and again on the memo
/// the cold batch filled (warm). Returns `[singles, cold, warm]` for the
/// caller's own counter assertions; leaves the memo cache filled.
pub fn assert_batch_equals_singles(seed: u64) -> [SweepPass; 3] {
    let sweep = Variant::tuner_sweep();
    let mm = MatMul { n: 48 };
    let (a, b) = mm.generate(seed);
    let pass = |runs| SweepPass {
        runs,
        counts: memo_counters(),
    };

    clear_memo_cache();
    reset_memo_counters();
    let singles = pass(sweep.iter().map(|&v| mm.run(v, &a, &b)).collect());
    clear_memo_cache();
    reset_memo_counters();
    let cold = pass(mm.run_batch(&sweep, &a, &b));
    let warm = pass(mm.run_batch(&sweep, &a, &b));

    for (name, batch) in [("cold", &cold), ("warm", &warm)] {
        assert_eq!(batch.runs.len(), sweep.len(), "{name} batch");
        for ((v, single), batched) in sweep.iter().zip(&singles.runs).zip(&batch.runs) {
            let tag = format!("{name} batch, {}", v.label());
            assert!(
                bits(&single.0).eq(bits(&batched.0)),
                "{tag}: output differs"
            );
            assert_eq!(stats_bytes(&single.1), stats_bytes(&batched.1), "{tag}");
            assert_eq!(batched.2.launches, 1, "{tag}");
        }
    }
    [singles, cold, warm]
}
