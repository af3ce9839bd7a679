//! Launch memoization: a warm launch must return bit-identical
//! [`KernelStats`] *and* reproduce the kernel's memory effects without
//! simulating, the cache must respect its capacity bound, honor the
//! `memo: false` switch, and serve hits across threads. Each case builds
//! the context it means and reads that context's counters.

use g80::isa::Kernel;
use g80::sim::{memo_counters, SimConfig, SimContext};
use std::sync::Arc;

mod common;
use common::{assert_stats_identical, Scale};

const SCALE: Scale = Scale { n: 4096 };
const N: u32 = SCALE.n;

/// Each multiplier is a distinct kernel *content* (distinct memo identity).
fn scale_kernel(mult: u32) -> Kernel {
    Scale::kernel("scale", mult, 0)
}

/// A fresh context with dedup off (isolating the memo axis) and no disk
/// tier.
fn context(memo: bool, memo_cap: usize) -> Arc<SimContext> {
    SimContext::new(SimConfig {
        memo,
        memo_cap,
        dedup: false,
        ..SimConfig::default()
    })
}

fn hits_misses() -> (u64, u64) {
    let c = memo_counters();
    (c.hits, c.misses)
}

/// Cold miss, then warm hit: stats and memory effects identical.
#[test]
fn warm_hit_replays_stats_and_memory() {
    let ctx = context(true, 128);
    ctx.enter(|| {
        let k3 = scale_kernel(3);
        let m1 = SCALE.input();
        let cold = SCALE.run(&k3, &m1);
        assert_eq!(hits_misses(), (0, 1));
        let m2 = SCALE.input();
        let warm = SCALE.run(&k3, &m2);
        assert_eq!(hits_misses(), (1, 1));
        assert_stats_identical("warm hit", &cold, &warm);
        assert_eq!(
            SCALE.output(&m1),
            SCALE.output(&m2),
            "a memo hit must replay the recorded memory delta"
        );
        assert_eq!(
            m2.read((N + 5) * 4).as_u32(),
            5u32.wrapping_mul(2654435761).wrapping_mul(3)
        );
    });
}

/// Memo off: the cache is bypassed entirely.
#[test]
fn memo_off_bypasses_the_cache() {
    let (on, off) = (context(true, 128), context(false, 128));
    let k3 = scale_kernel(3);
    let cached = on.enter(|| SCALE.run(&k3, &SCALE.input()));
    off.enter(|| {
        let first = SCALE.run(&k3, &SCALE.input());
        let second = SCALE.run(&k3, &SCALE.input());
        assert_eq!(hits_misses(), (0, 0), "memo off must not touch the cache");
        assert_stats_identical("memo off", &cached, &first);
        assert_stats_identical("memo off, repeat", &cached, &second);
    });
}

/// Capacity 1: the second distinct launch evicts the first.
#[test]
fn capacity_one_evicts_the_previous_launch() {
    let ctx = context(true, 1);
    ctx.enter(|| {
        let (k3, k5) = (scale_kernel(3), scale_kernel(5));
        SCALE.run(&k3, &SCALE.input()); // miss, cached
        SCALE.run(&k5, &SCALE.input()); // miss, evicts k3
        SCALE.run(&k3, &SCALE.input()); // miss again (was evicted), evicts k5
        SCALE.run(&k3, &SCALE.input()); // hit
        assert_eq!(hits_misses(), (1, 3), "capacity-1 eviction");
    });
}

/// Cross-thread hits: one warm entry serves 8 threads, each of which enters
/// the context itself (spawned threads do not inherit it).
#[test]
fn one_warm_entry_serves_eight_threads() {
    let ctx = context(true, 128);
    let k7 = scale_kernel(7);
    let seed = SCALE.input();
    let base = ctx.enter(|| SCALE.run(&k7, &seed)); // cold, records
    let expected = SCALE.output(&seed);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(|| {
                    let mem = SCALE.input();
                    let stats = ctx.enter(|| SCALE.run(&k7, &mem));
                    (stats, SCALE.output(&mem))
                })
            })
            .collect();
        for h in handles {
            let (stats, out) = h.join().expect("memo thread panicked");
            assert_stats_identical("cross-thread", &base, &stats);
            assert_eq!(out, expected);
        }
    });
    let c = ctx.enter(memo_counters);
    assert_eq!(
        (c.hits, c.misses),
        (8, 1),
        "all threads must hit the warm entry: {c:?}"
    );
    assert!((c.hit_rate() - 8.0 / 9.0).abs() < 1e-9, "{c:?}");
}
