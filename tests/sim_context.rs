//! `SimContext` as the unit of host-side state: two contexts with different
//! configurations run side by side in one process without seeing each
//! other's caches or counters, and the configuration axes that are part of a
//! cache key keep entries of different contexts apart on a shared disk tier.

use g80::apps::matmul::{MatMul, Variant};
use g80::sim::{
    fault, memo_counters, row_counters, Engine, MemoCounters, RowCounters, SimConfig, SimContext,
};
use std::sync::Barrier;

mod common;
use common::{bits, stats_bytes};

/// What one pass of [`workload`] produced and left in its context.
struct Outcome {
    /// Output bits and canonical stats bytes of every run.
    runs: Vec<(Vec<u32>, Vec<u8>)>,
    memo: MemoCounters,
    rows: RowCounters,
}

/// Two passes over the tuner's nine matmul variants at n=48 in the current
/// context.
fn workload() -> Outcome {
    let mm = MatMul { n: 48 };
    let (a, b) = mm.generate(3);
    let runs = (0..2)
        .flat_map(|_| Variant::tuner_sweep())
        .map(|v| {
            let (c, stats, _) = mm.run(v, &a, &b);
            (bits(&c).collect(), stats_bytes(&stats))
        })
        .collect();
    Outcome {
        runs,
        memo: memo_counters(),
        rows: row_counters(),
    }
}

#[test]
fn two_contexts_run_side_by_side() {
    let roomy = SimConfig::default();
    let uncached = SimConfig {
        memo: false,
        memo_cap: 1,
        ..SimConfig::default()
    };
    // What each configuration does with the workload when it runs alone.
    let alone = [&roomy, &uncached].map(|cfg| SimContext::new(cfg.clone()).enter(workload));

    // The same, at the same time: each thread enters its own context (a
    // spawned thread does not inherit one) and both start together.
    let contexts = [&roomy, &uncached].map(|cfg| SimContext::new(cfg.clone()));
    let start = Barrier::new(2);
    let together = std::thread::scope(|s| {
        let threads = contexts.each_ref().map(|ctx| {
            s.spawn(|| {
                ctx.enter(|| {
                    start.wait();
                    workload()
                })
            })
        });
        threads.map(|t| t.join().expect("context thread"))
    });

    // Bit-identical results, across configurations and against the solo runs.
    for outcome in alone.iter().chain(&together) {
        assert!(outcome.runs == alone[0].runs, "stats or memory differ");
    }
    if fault::armed() {
        return; // counters are exact only while no injected fault forces a retry
    }
    // Each context counted exactly what it did alone: nothing of the other's
    // traffic, cache or row tallies leaked in.
    for (i, (solo, side_by_side)) in alone.iter().zip(&together).enumerate() {
        assert_eq!(solo.memo, side_by_side.memo, "context {i}: memo counters");
        assert_eq!(solo.rows, side_by_side.rows, "context {i}: row counters");
    }
    let (cached, plain) = (together[0].memo, together[1].memo);
    assert_eq!((cached.hits, cached.misses), (9, 9));
    assert_eq!((plain.hits, plain.misses), (0, 0));
    assert_eq!(contexts[0].enter(memo_counters), cached);
    // A third context starts cold however warm the first one is.
    let late = SimContext::new(roomy).enter(workload).memo;
    assert_eq!((late.hits, late.misses), (9, 9));
}

/// Engine and dedup mode are part of the memo key (its frozen mode byte),
/// and the context's configuration is what feeds it: on one shared disk
/// directory every mode finds the tier cold for itself, whatever the modes
/// before it published, and warm on its second visit in a fresh context.
#[test]
fn disk_entries_are_keyed_by_the_recording_contexts_mode() {
    if fault::armed() {
        return; // exact counters
    }
    let dir = common::scratch_dir("mode-byte");
    let visit = |engine, dedup| {
        let ctx = SimContext::new(SimConfig {
            engine,
            dedup,
            disk_dir: Some(dir.clone()),
            ..SimConfig::default()
        });
        let memo = ctx.enter(workload).memo;
        (memo.disk_hits, memo.misses)
    };
    for expected in [(0, 9), (9, 0)] {
        for engine in [Engine::Predecoded, Engine::Reference] {
            for dedup in [true, false] {
                assert_eq!(visit(engine, dedup), expected, "{engine:?}, dedup {dedup}");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
