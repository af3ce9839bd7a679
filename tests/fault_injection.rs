//! Real faults and the degradation contract they are held to:
//!
//! * **watchdog** — a non-terminating kernel aborts with
//!   `LaunchError::Watchdog` (partial stats attached) under both engines,
//!   instead of hanging the pool;
//! * **mixed-validity batches** — one invalid or panicking entry degrades
//!   to its own `Err`; every sibling's stats and memory match solo runs;
//! * **chaos legs** — in every context of the configuration matrix, the
//!   small Table 3 suite runs as one pool batch with an out-of-bounds and a
//!   runaway launch after each app: every bad launch gets its own typed
//!   `Err` and leaves no memo entry, every app matches a clean context bit
//!   for bit, and a second pass in the same context does too.
//!
//! Every scenario runs in contexts of its own, so they run in parallel.

use g80::isa::builder::KernelBuilder;
use g80::isa::{Kernel, Value};
use g80::sim::{
    launch, launch_batch, memo_counters, pool, DeviceMemory, GpuConfig, KernelStats, LaunchDims,
    LaunchError, LaunchSpec, SimConfig, SimContext,
};
use g80_bench::suite::{run_suite, suite_jobs, Scale as SuiteScale};
use std::sync::Arc;

mod common;
use common::{stats_bytes, Scale};

/// Each (mult, salt) pair is distinct kernel *content*: a fresh decode and a
/// fresh memo identity.
fn scale_kernel(mult: u32, salt: u32) -> Kernel {
    Scale::kernel("fi_scale", mult, salt)
}

/// A kernel that branches back to its own entry forever.
fn spin_kernel() -> Kernel {
    let mut b = KernelBuilder::new("fi_spin");
    let p = b.param();
    let top = b.new_label();
    b.bind(top);
    let tid = b.tid_x();
    let byte = b.shl(tid, 2u32);
    let a = b.iadd(byte, p);
    b.st_global(a, 0, tid);
    b.bra(top);
    b.build()
}

/// A kernel that stores far past any test memory (a genuine bug: the
/// simulator panics with its out-of-bounds message).
fn oob_kernel() -> Kernel {
    let mut b = KernelBuilder::new("fi_oob");
    let _p = b.param();
    let tid = b.tid_x();
    let byte = b.shl(tid, 2u32);
    let addr = b.iadd(byte, 1u32 << 28);
    b.st_global(addr, 0, tid);
    b.build()
}

/// A fresh product context: cold memo, zero counters and no disk tier
/// (whatever the CI env sets the global context to — the exact-count
/// assertions below reason about the in-process LRU alone).
fn fresh_context() -> Arc<SimContext> {
    SimContext::new(SimConfig::default())
}

#[test]
fn watchdog_aborts_runaway_kernels() {
    let cfg = &GpuConfig::geforce_8800_gtx();
    let spin = spin_kernel();
    const BUDGET: u64 = 50_000;
    for (salt, (engine, new)) in (0u32..).zip(common::ENGINES) {
        let unbounded = SimConfig::default();
        let watched = new(SimConfig {
            watchdog_cycles: Some(BUDGET),
            ..unbounded.clone()
        });
        let mem = DeviceMemory::new(1 << 12);
        let r = watched.enter(|| {
            launch(
                cfg,
                &spin,
                LaunchDims {
                    grid: (2, 1),
                    block: (32, 1, 1),
                },
                &[Value::from_u32(0)],
                &mem,
            )
        });
        match r {
            Err(LaunchError::Watchdog {
                kernel,
                budget,
                cycles,
                warp_instructions,
            }) => {
                assert_eq!(kernel, "fi_spin", "{engine:?}");
                assert_eq!(budget, BUDGET, "{engine:?}");
                assert!(cycles >= BUDGET, "{engine:?}: {cycles}");
                assert!(warp_instructions > 0, "{engine:?}");
            }
            other => panic!("{engine:?}: expected Watchdog, got {other:?}"),
        }
        // The budget belongs to its context: beside it, one without a
        // watchdog simulates terminating kernels normally.
        let probe = Scale { n: 256 };
        new(unbounded).enter(|| probe.run(&scale_kernel(2, salt), &probe.input()));
    }
}

#[test]
fn mixed_validity_batch_isolates_failures() {
    let cfg = &GpuConfig::geforce_8800_gtx();
    const S: Scale = Scale { n: 512 };
    let good = scale_kernel(5, 11);
    let warm = scale_kernel(5, 12);
    let oob = oob_kernel();

    // Solo references on fresh memories.
    let solo_mem = S.input();
    let solo = fresh_context().enter(|| S.run(&good, &solo_mem));
    let solo_out = S.output(&solo_mem);

    let m0 = S.input();
    let m1 = S.input();
    let m_hit = S.input();
    let m2 = S.input();
    let m3 = S.input();
    let params = S.params();
    let dims_ok = S.dims();
    let specs = vec![
        LaunchSpec {
            kernel: &good,
            dims: dims_ok,
            params: &params,
            mem: &m0,
        },
        // Invalid at validation time: zero-thread block.
        LaunchSpec {
            kernel: &good,
            dims: LaunchDims {
                grid: (1, 1),
                block: (0, 1, 1),
            },
            params: &params,
            mem: &m1,
        },
        // Answered by the memo during the serial probe, ahead of the entry
        // that panics: a hit never reaches the pool, and the panic two
        // tasks later must not disturb it.
        LaunchSpec {
            kernel: &warm,
            dims: dims_ok,
            params: &params,
            mem: &m_hit,
        },
        // Panics mid-simulation: out-of-bounds store.
        LaunchSpec {
            kernel: &oob,
            dims: LaunchDims {
                grid: (1, 1),
                block: (32, 1, 1),
            },
            params: &params[..1],
            mem: &m2,
        },
        LaunchSpec {
            kernel: &good,
            dims: dims_ok,
            params: &params,
            mem: &m3,
        },
    ];
    // The batch must simulate `good`, not replay the solo run: in a context
    // of its own, only `warm` is recorded ahead of it.
    let warm_mem = S.input();
    let (warm_solo, results, counts) = fresh_context().enter(|| {
        let warm_solo = S.run(&warm, &warm_mem);
        (warm_solo, launch_batch(cfg, &specs), memo_counters())
    });
    assert_eq!(results.len(), 5);
    let ok0 = results[0].as_ref().expect("entry 0 valid");
    assert!(
        matches!(results[1], Err(LaunchError::BadBlockDims(_))),
        "{:?}",
        results[1]
    );
    let hit = results[2].as_ref().expect("entry 2 is a memo hit");
    assert_eq!(counts.hits, 1, "exactly the warm entry hits");
    assert_eq!(hit.cycles, warm_solo.cycles);
    assert_eq!(hit.warp_instructions, warm_solo.warp_instructions);
    assert_eq!(S.output(&m_hit), S.output(&warm_mem));
    match &results[3] {
        Err(LaunchError::Panic(msg)) => assert!(msg.contains("out of bounds"), "{msg}"),
        other => panic!("expected Panic, got {other:?}"),
    }
    let ok4 = results[4].as_ref().expect("entry 4 valid");
    // No cross-contamination: the surviving entries match solo runs.
    for (label, stats, mem) in [("entry 0", ok0, &m0), ("entry 4", ok4, &m3)] {
        assert_eq!(stats.cycles, solo.cycles, "{label}");
        assert_eq!(stats.warp_instructions, solo.warp_instructions, "{label}");
        assert_eq!(S.output(mem), solo_out, "{label}");
    }
}

/// The chaos batch's watchdog budget: above the per-SM cycles of every
/// small Table 3 launch (TPACF's ≈ 0.58 M is the most), so only the spin
/// launches reach it.
const CHAOS_BUDGET: u64 = 1_000_000;

/// One entry of the chaos batch: an app's name, stats bytes and validated
/// error bits, or a bad launch's error.
type Entry = Result<(String, Vec<u8>, u32), LaunchError>;

/// One warp of `kernel` on a fresh memory.
fn bad_launch(kernel: &Kernel) -> Result<KernelStats, LaunchError> {
    let dims = LaunchDims {
        grid: (1, 1),
        block: (32, 1, 1),
    };
    let mem = DeviceMemory::new(1 << 12);
    launch(
        &GpuConfig::geforce_8800_gtx(),
        kernel,
        dims,
        &[Value::from_u32(0)],
        &mem,
    )
}

/// The small Table 3 suite as one pool batch, each app followed by an
/// out-of-bounds launch and a runaway one.
fn chaos_batch(oob: &Kernel, spin: &Kernel) -> Vec<Entry> {
    let bad = |kernel| -> Entry {
        bad_launch(kernel).map(|s| ("a bad launch succeeded".into(), stats_bytes(&s), 0))
    };
    let mut tasks: Vec<Box<dyn FnOnce() -> Entry + Send + '_>> = Vec::new();
    for job in suite_jobs(SuiteScale::Small) {
        tasks.push(Box::new(move || {
            let r = job();
            let name = r.name.to_string();
            Ok((name, stats_bytes(&r.stats), r.max_rel_error.to_bits()))
        }));
        tasks.push(Box::new(move || bad(oob)));
        tasks.push(Box::new(move || bad(spin)));
    }
    pool::run_tasks(tasks)
}

/// Real faults in every context of the matrix, with the watchdog budget
/// set: each bad launch of [`chaos_batch`] gets its own typed `Err` and
/// leaves no memo entry, each app equals a clean default context's, and a
/// second pass in the same context is bit-identical, so neither the pool
/// nor the memo is wedged.
#[test]
fn chaos_legs_match_a_clean_context() {
    let clean: Vec<Entry> = fresh_context()
        .enter(|| run_suite(SuiteScale::Small))
        .iter()
        .map(|r| {
            let name = r.name.to_string();
            Ok((name, stats_bytes(&r.stats), r.max_rel_error.to_bits()))
        })
        .collect();
    let (oob, spin) = (oob_kernel(), spin_kernel());
    for (leg, member) in common::contexts().iter() {
        let ctx = SimContext::new(SimConfig {
            watchdog_cycles: Some(CHAOS_BUDGET),
            ..member.config().clone()
        });
        let first = ctx.enter(|| chaos_batch(&oob, &spin));
        assert_eq!(first.len(), 3 * clean.len(), "{leg}");
        for (entries, want) in first.chunks(3).zip(&clean) {
            assert_eq!(&entries[0], want, "{leg}");
            match &entries[1] {
                Err(LaunchError::Panic(msg)) => assert!(msg.contains("out of bounds"), "{msg}"),
                other => panic!("{leg}: expected the out-of-bounds panic, got {other:?}"),
            }
            match &entries[2] {
                Err(LaunchError::Watchdog {
                    kernel,
                    budget,
                    cycles,
                    ..
                }) => {
                    assert_eq!((kernel.as_str(), *budget), ("fi_spin", CHAOS_BUDGET));
                    assert!(*cycles >= CHAOS_BUDGET, "{leg}: {cycles}");
                }
                other => panic!("{leg}: expected the watchdog abort, got {other:?}"),
            }
        }
        // A memo hit would answer a bad launch with `Ok`: neither pass, nor
        // a probe of each bad launch after them, may find an entry.
        let second = ctx.enter(|| chaos_batch(&oob, &spin));
        assert_eq!(second, first, "{leg}: the second pass differs");
        let before = ctx.enter(memo_counters);
        for kernel in [&oob, &spin] {
            assert!(ctx.enter(|| bad_launch(kernel)).is_err(), "{leg}");
        }
        let after = ctx.enter(memo_counters);
        assert_eq!(
            (after.hits, after.disk_hits),
            (before.hits, before.disk_hits),
            "{leg}: a bad launch left a memo entry"
        );
    }
}
