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
//!   run taken before any fault fired;
//! * **replay** — re-arming a context with the same config replays the
//!   same faults at the same polls.
//!
//! Every scenario arms a context of its own, so they run in parallel.

use g80::isa::builder::KernelBuilder;
use g80::isa::{Kernel, Value};
use g80::sim::fault::{self, FaultConfig, FaultKind, Site};
use g80::sim::{
    launch, launch_batch, memo_counters, DeviceMemory, GpuConfig, LaunchDims, LaunchError,
    LaunchSpec, SimConfig, SimContext,
};
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

/// A fresh product context: cold memo, zero counters, no disk tier and
/// faults disarmed (whatever the CI env arms the global context with — the
/// exact-count assertions below reason about the in-process LRU alone, and
/// the soak arms its own private disk directory).
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

/// Two tasks that rendezvous can only finish if two threads run them, so a
/// pool worker steals from the calling context's scope and polls its
/// `pool.worker` site.
fn rendezvous_on_the_pool() {
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
    assert_eq!(g80::sim::pool::run_tasks(tasks), vec![1, 2]);
}

#[test]
fn pool_respawns_dead_workers() {
    // Memo off: every launch must actually simulate (and, past the
    // caller-runs size, exercise the pool) instead of replaying the first
    // launch from the cache.
    let uncached = SimConfig {
        memo: false,
        ..SimConfig::default()
    };
    const S: Scale = Scale { n: 1 << 14 };
    let k = scale_kernel(9, 13);
    let clean_mem = S.input();
    let clean = SimContext::new(uncached.clone()).enter(|| S.run(&k, &clean_mem));
    let clean_out = S.output(&clean_mem);

    // Kill workers (panic kind, pool.worker only). Worker deaths are
    // invisible to tasks — the site is polled before a task is stolen — so
    // every launch must still succeed with bit-identical results.
    let kill = FaultConfig::new(0xdead, 0.5, Some(FaultKind::Panic)).only(Site::PoolWorker);
    let ctx = SimContext::new(SimConfig {
        faults: Some(kill),
        ..uncached
    });
    let deaths = || ctx.faults().raised(Site::PoolWorker);
    for _ in 0..8 {
        let mem = S.input();
        let stats = ctx.enter(|| S.run(&k, &mem));
        assert_eq!(stats.cycles, clean.cycles);
        assert_eq!(S.output(&mem), clean_out);
    }
    // The scope owner can win every race for its own tasks, so force worker
    // participation until a death lands (the deterministic schedule at rate
    // 0.5 cannot stay silent for long).
    for _ in 0..500 {
        if deaths() > 0 {
            break;
        }
        ctx.enter(rendezvous_on_the_pool);
    }
    // Every pool.worker fire unwinds a worker out of its loop.
    assert!(deaths() > 0, "no worker death was injected at rate 0.5");
    // The pool is still functional at its configured width's behavior:
    // another clean launch drains normally.
    ctx.faults().arm(None);
    let mem = S.input();
    assert_eq!(ctx.enter(|| S.run(&k, &mem)).cycles, clean.cycles);
}

#[test]
fn memo_corruption_is_detected_and_resimulated() {
    let ctx = fresh_context();
    ctx.enter(|| memo_corruption(&ctx));
}

fn memo_corruption(ctx: &SimContext) {
    const S: Scale = Scale { n: 512 };
    let k = scale_kernel(17, 23);
    let arm = |site| {
        ctx.faults().arm(Some(
            FaultConfig::new(1, 1.0, Some(FaultKind::Typed)).only(site),
        ))
    };

    // Cold launch with the store path corrupting every entry it records.
    arm(Site::MemoStore);
    let m1 = S.input();
    let first = S.run(&k, &m1);
    ctx.faults().arm(None);

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
    arm(Site::MemoLoad);
    let m4 = S.input();
    let fourth = S.run(&k, &m4);
    assert_eq!(ctx.faults().raised(Site::MemoLoad), 1);
    ctx.faults().arm(None);
    assert_eq!(fourth.cycles, first.cycles);
    assert_eq!(S.output(&m4), S.output(&m1));
}

#[test]
fn soak_every_site_both_kinds() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    const N: u32 = 256;
    const S: Scale = Scale { n: N };

    // Golden run *before* any fault ever fires: the degradation contract
    // says a disarmed re-run in the soaked context must reproduce this bit
    // for bit.
    const GOLDEN: Scale = Scale { n: 1024 };
    let golden_kernel = scale_kernel(3, 7);
    let golden_mem = GOLDEN.input();
    let golden = fresh_context().enter(|| GOLDEN.run(&golden_kernel, &golden_mem));
    let golden_out = GOLDEN.output(&golden_mem);

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
    let mut launches = 0u64;
    let mut injected_errs = 0u64;
    let mut raised = [0u64; Site::ALL.len()];
    for (si, &seed) in [101u64, 202, 303].iter().enumerate() {
        for (ki, kind) in [FaultKind::Typed, FaultKind::Panic].into_iter().enumerate() {
            ctx.faults().arm(Some(FaultConfig {
                absorb: false,
                ..FaultConfig::new(seed, 0.08, Some(kind))
            }));
            for iter in 0..20u32 {
                // Distinct kernel content per iteration: every iteration
                // pays a fresh decode (isa.decode site) and a fresh memo
                // identity (memo.store site on success).
                let salt = (si as u32) << 16 | (ki as u32) << 8 | iter;
                let k = scale_kernel(3, salt);
                let body = || {
                    rendezvous_on_the_pool();
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
            for (total, site) in raised.iter_mut().zip(Site::ALL) {
                *total += ctx.faults().raised(site);
            }
        }
    }
    ctx.faults().arm(None);

    assert!(launches > 0);
    assert!(
        injected_errs > 0,
        "rate 0.08 over {launches} launches fired no launch-level fault"
    );
    for (site, total) in Site::ALL.into_iter().zip(raised) {
        if site == Site::ServeDecode {
            // Polled per decoded frame by the g80-serve daemon, which this
            // in-process soak never runs; tests/serve_chaos.rs soaks it.
            continue;
        }
        assert!(
            total > 0,
            "site {} never fired during the soak",
            site.name()
        );
    }
    // The pool survived: a clean fleet drains with correct results.
    let sums = g80::sim::pool::run_tasks((0..32u64).map(|i| move || i * 3).collect::<Vec<_>>());
    assert_eq!(sums, (0..32u64).map(|i| i * 3).collect::<Vec<_>>());

    // ---- degradation contract: disarmed re-run is bit-identical ----
    let mem = GOLDEN.input();
    let again = ctx.enter(|| GOLDEN.run(&golden_kernel, &mem));
    assert_eq!(golden.cycles, again.cycles, "golden cycles drifted");
    assert_eq!(golden.warp_instructions, again.warp_instructions);
    assert_eq!(golden.stall_cycles, again.stall_cycles);
    assert_eq!(golden.by_class, again.by_class);
    assert_eq!(golden.global_bytes, again.global_bytes);
    assert_eq!(golden_out, GOLDEN.output(&mem), "golden output drifted");
    let _ = std::fs::remove_dir_all(&disk_dir);
}

/// Arming a context re-starts its schedule: the same config over the same
/// launch sequence fires at the same polls, so a chaos failure replays from
/// its seed in one process too. Each launch is sixteen one-block SMs run on
/// the calling thread, one donor polled and fifteen replaying it; no memo,
/// absorb off — every outcome is a pure function of the call indices.
#[test]
fn rearming_replays_the_schedule() {
    const S: Scale = Scale { n: 1024 };
    let ctx = SimContext::new(SimConfig {
        memo: false,
        ..SimConfig::default()
    });
    let faults = FaultConfig {
        absorb: false,
        ..FaultConfig::new(0x5eed, 0.2, Some(FaultKind::Typed)).only(Site::SmStep)
    };
    let k = scale_kernel(41, 43);
    let pass = || -> (Vec<Result<Vec<u8>, LaunchError>>, Vec<u64>) {
        ctx.faults().arm(Some(faults));
        let outcomes = (0..24)
            .map(|_| {
                ctx.enter(|| S.try_run(&k, &S.input()))
                    .map(|s| stats_bytes(&s))
            })
            .collect();
        let raised = Site::ALL.map(|s| ctx.faults().raised(s)).to_vec();
        (outcomes, raised)
    };
    let (first, raised) = pass();
    let fired = first.iter().filter(|r| r.is_err()).count();
    assert!(
        fired > 0 && fired < first.len(),
        "{fired} of {} launches faulted: pick another seed",
        first.len()
    );
    assert_eq!(raised[Site::SmStep as usize], fired as u64);
    assert_eq!(
        pass(),
        (first, raised),
        "re-arming must replay the schedule"
    );
}
