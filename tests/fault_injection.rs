//! The fault-injection harness and the degradation contract it enforces:
//!
//! * **watchdog** — a non-terminating kernel aborts with
//!   `LaunchError::Watchdog` (partial stats attached) under both engines,
//!   instead of hanging the pool;
//! * **mixed-validity batches** — one invalid or panicking entry degrades
//!   to its own `Err`; every sibling's stats and memory match solo runs;
//! * **pool respawn** — injected worker deaths are absorbed: workers are
//!   respawned, no task is lost, results stay bit-identical;
//! * **memo corruption** — a corrupted cache entry is detected by checksum
//!   on the next probe, evicted, and re-simulated to identical stats;
//! * **soak** — every site × both kinds × three seeds, with absorb-and-
//!   retry off: the process never aborts, every launch-level `Err` is
//!   injected-class, and a disarmed re-run is bit-identical to a golden
//!   run taken before any fault fired.
//!
//! The fault schedule is process-global, so everything runs inside one
//! `#[test]` (parallel test threads would race it); every other setting is
//! the context a scenario builds for itself.

use g80::isa::builder::KernelBuilder;
use g80::isa::{Kernel, Value};
use g80::sim::fault::{self, FaultConfig, FaultKind, Site};
use g80::sim::{
    launch, launch_batch, memo_counters, set_faults, DeviceMemory, Engine, GpuConfig, LaunchDims,
    LaunchError, LaunchSpec, SimConfig, SimContext,
};
use std::sync::Arc;

mod common;
use common::Scale;

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

/// Resets the process-global fault state to the harness-off defaults.
fn disarm_all() {
    set_faults(None);
    fault::set_retry(true);
}

/// A fresh product context: cold memo, zero counters, no disk tier (even if
/// `G80_SIM_DISK_CACHE` is set in the CI env — the exact-count assertions
/// below reason about the in-process LRU alone, and the soak arms its own
/// private disk directory).
fn fresh_context() -> Arc<SimContext> {
    SimContext::new(SimConfig::default())
}

#[test]
fn fault_injection_and_degradation() {
    disarm_all();
    let cfg = GpuConfig::geforce_8800_gtx();

    // Golden run *before* any fault ever fires: the degradation contract
    // says a disarmed re-run at the very end must reproduce this bit for
    // bit.
    const GOLDEN: Scale = Scale { n: 1024 };
    let golden_kernel = scale_kernel(3, 7);
    let golden_mem = GOLDEN.input();
    let golden = fresh_context().enter(|| GOLDEN.run(&golden_kernel, &golden_mem));
    let golden_out = GOLDEN.output(&golden_mem);

    watchdog_aborts_runaway_kernels(&cfg);
    mixed_validity_batch_isolates_failures(&cfg);
    pool_respawns_dead_workers();
    fresh_context().enter(memo_corruption_is_detected_and_resimulated);
    soak_every_site_both_kinds();

    // ---- degradation contract: disarmed re-run is bit-identical ----
    disarm_all();
    let mem = GOLDEN.input();
    let again = fresh_context().enter(|| GOLDEN.run(&golden_kernel, &mem));
    assert_eq!(golden.cycles, again.cycles, "golden cycles drifted");
    assert_eq!(golden.warp_instructions, again.warp_instructions);
    assert_eq!(golden.stall_cycles, again.stall_cycles);
    assert_eq!(golden.by_class, again.by_class);
    assert_eq!(golden.global_bytes, again.global_bytes);
    assert_eq!(golden_out, GOLDEN.output(&mem), "golden output drifted");
}

fn watchdog_aborts_runaway_kernels(cfg: &GpuConfig) {
    disarm_all();
    let spin = spin_kernel();
    const BUDGET: u64 = 50_000;
    for engine in [Engine::Predecoded, Engine::Reference] {
        let unbounded = SimConfig {
            engine,
            ..SimConfig::default()
        };
        let watched = SimContext::new(SimConfig {
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
        SimContext::new(unbounded)
            .enter(|| probe.run(&scale_kernel(2, engine as u32), &probe.input()));
    }
}

fn mixed_validity_batch_isolates_failures(cfg: &GpuConfig) {
    disarm_all();
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
        Err(e @ LaunchError::Panic(msg)) => {
            assert!(msg.contains("out of bounds"), "{msg}");
            assert!(!e.is_injected(), "a real bug must not look injected");
        }
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

fn pool_respawns_dead_workers() {
    disarm_all();
    // Memo off: every launch must actually simulate (and thus exercise the
    // pool) instead of replaying the first launch from the cache.
    let uncached = SimContext::new(SimConfig {
        memo: false,
        ..SimConfig::default()
    });
    const S: Scale = Scale { n: 1024 };
    let run = |k: &Kernel, mem: &DeviceMemory| uncached.enter(|| S.run(k, mem));
    let k = scale_kernel(9, 13);
    let clean_mem = S.input();
    let clean = run(&k, &clean_mem);
    let clean_out = S.output(&clean_mem);

    // Kill workers (panic kind, pool.worker only). Worker deaths are
    // invisible to tasks — the site is polled before a task is stolen — so
    // every launch must still succeed with bit-identical results.
    let deaths_before = fault::worker_deaths();
    set_faults(Some(
        FaultConfig::new(0xdead, 0.5, Some(FaultKind::Panic)).only(Site::PoolWorker),
    ));
    for _ in 0..8 {
        let mem = S.input();
        let stats = run(&k, &mem);
        assert_eq!(stats.cycles, clean.cycles);
        assert_eq!(S.output(&mem), clean_out);
    }
    // The site is polled only when a worker steals (the scope owner drains
    // its own queue too, and on a small host it can win every race), so
    // force worker participation: a pair of tasks that rendezvous can only
    // finish if two threads run them — at least one is a pool worker, and
    // every worker pass polls the site. Repeat until a death lands (the
    // deterministic schedule at rate 0.5 cannot stay silent for long).
    for round in 0..500 {
        if fault::worker_deaths() > deaths_before {
            break;
        }
        let barrier = std::sync::Barrier::new(2);
        let b = &barrier;
        let tasks: Vec<_> = (1u32..=2)
            .map(|i| {
                move || {
                    b.wait();
                    i
                }
            })
            .collect();
        let out = g80::sim::pool::run_tasks(tasks);
        assert_eq!(out, vec![1, 2], "round {round}");
    }
    set_faults(None);
    assert!(
        fault::worker_deaths() > deaths_before,
        "no worker death was injected at rate 0.5"
    );
    // The pool is still functional at its configured width's behavior:
    // another clean launch drains normally.
    let mem = S.input();
    assert_eq!(run(&k, &mem).cycles, clean.cycles);
}

fn memo_corruption_is_detected_and_resimulated() {
    disarm_all();
    const S: Scale = Scale { n: 512 };
    let k = scale_kernel(17, 23);

    // Cold launch with the store path corrupting every entry it records.
    set_faults(Some(
        FaultConfig::new(1, 1.0, Some(FaultKind::Typed)).only(Site::MemoStore),
    ));
    let m1 = S.input();
    let first = S.run(&k, &m1);
    set_faults(None);

    // The corrupted entry must be caught by its checksum on the next probe,
    // evicted, and the launch re-simulated — identical stats, counted as a
    // miss, and the replacement entry is clean (third launch hits).
    let m2 = S.input();
    let second = S.run(&k, &m2);
    let mid = memo_counters();
    assert_eq!(mid.misses, 2, "corrupted entry must degrade to a miss");
    assert_eq!(mid.hits, 0, "corrupted entry must not hit");
    let m3 = S.input();
    let third = S.run(&k, &m3);
    assert_eq!(memo_counters().hits, 1, "re-recorded entry must hit");
    for (label, s, m) in [("second", &second, &m2), ("third", &third, &m3)] {
        assert_eq!(s.cycles, first.cycles, "{label}");
        assert_eq!(s.warp_instructions, first.warp_instructions, "{label}");
        assert_eq!(S.output(m), S.output(&m1), "{label}");
    }

    // Load-path tampering: a typed memo.load fault marks the probed entry
    // tampered, which evicts and re-simulates exactly like corruption.
    set_faults(Some(
        FaultConfig::new(2, 1.0, Some(FaultKind::Typed)).only(Site::MemoLoad),
    ));
    let m4 = S.input();
    let fourth = S.run(&k, &m4);
    set_faults(None);
    assert_eq!(fourth.cycles, first.cycles);
    assert_eq!(S.output(&m4), S.output(&m1));
}

fn soak_every_site_both_kinds() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    disarm_all();
    const N: u32 = 256;
    const S: Scale = Scale { n: N };

    // The memo.disk site only polls while the disk tier is enabled, so the
    // soak runs against a private cache directory: every recorded miss
    // publishes (one poll) and every LRU miss probes (another poll).
    let disk_dir = std::env::temp_dir().join(format!("g80-fi-soak-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&disk_dir);
    let ctx = SimContext::new(SimConfig {
        disk_dir: Some(disk_dir.clone()),
        ..SimConfig::default()
    });

    // Absorb-and-retry OFF: every injected fault must surface — as a typed
    // per-launch Err, a classified injected panic, or (device layer) a
    // typed CudaError — and never as a process abort or a wedged pool.
    fault::set_retry(false);
    let mut launches = 0u64;
    let mut injected_errs = 0u64;
    for (si, &seed) in [101u64, 202, 303].iter().enumerate() {
        for (ki, kind) in [FaultKind::Typed, FaultKind::Panic].into_iter().enumerate() {
            set_faults(Some(FaultConfig::new(seed, 0.08, Some(kind))));
            for iter in 0..20u32 {
                // Distinct kernel content per iteration: every iteration
                // pays a fresh decode (isa.decode site) and a fresh memo
                // identity (memo.store site on success).
                let salt = (si as u32) << 16 | (ki as u32) << 8 | iter;
                let k = scale_kernel(3, salt);
                let body = || {
                    let mut dev = g80::cuda::Device::new(4 * N * 4);
                    // try_* twins: typed device faults come back as values.
                    let x = match dev.try_alloc::<u32>(N as usize) {
                        Ok(b) => b,
                        Err(e) => {
                            assert!(
                                matches!(e, g80::cuda::CudaError::InjectedFault { .. }),
                                "real device error in soak: {e}"
                            );
                            return (0u64, 0u64);
                        }
                    };
                    let data: Vec<u32> = (0..N).map(|i| i.wrapping_mul(2654435761)).collect();
                    if let Err(e) = dev.try_copy_to_device(&x, &data) {
                        assert!(
                            matches!(e, g80::cuda::CudaError::InjectedFault { .. }),
                            "{e}"
                        );
                        return (0, 0);
                    }
                    // Launch twice: the repeat exercises the memo.load site
                    // on a warm entry.
                    let mut l = 0u64;
                    let mut e = 0u64;
                    for _ in 0..2 {
                        let mem = S.input();
                        l += 1;
                        match S.try_run(&k, &mem) {
                            Ok(_) => {}
                            Err(err) => {
                                assert!(
                                    err.is_injected(),
                                    "soak surfaced a non-injected launch error: {err}"
                                );
                                e += 1;
                            }
                        }
                    }
                    (l, e)
                };
                match catch_unwind(AssertUnwindSafe(|| ctx.enter(body))) {
                    Ok((l, e)) => {
                        launches += l;
                        injected_errs += e;
                    }
                    Err(p) => assert!(
                        fault::is_injected_payload(p.as_ref()),
                        "soak leaked a real panic: {:?}",
                        fault::payload_str(p.as_ref())
                    ),
                }
            }
            set_faults(None);
        }
    }
    fault::set_retry(true);

    assert!(launches > 0);
    assert!(
        injected_errs > 0,
        "rate 0.08 over {launches} launches fired no launch-level fault"
    );
    for site in Site::ALL {
        if site == Site::ServeDecode {
            // Polled per decoded frame by the g80-serve daemon, which this
            // in-process soak never runs; tests/serve_chaos.rs soaks it.
            continue;
        }
        assert!(
            fault::raised(site) > 0,
            "site {} never fired during the soak",
            site.name()
        );
    }
    // The pool survived: a clean fleet drains with correct results.
    let sums = g80::sim::pool::run_tasks((0..32u64).map(|i| move || i * 3).collect::<Vec<_>>());
    assert_eq!(sums, (0..32u64).map(|i| i * 3).collect::<Vec<_>>());
    let _ = std::fs::remove_dir_all(&disk_dir);
}
