//! End-to-end daemon contract, over real sockets:
//!
//! * **golden cross-check** — eight concurrent tenants each run their own
//!   kernel through the daemon; every returned `KernelStats` and memory
//!   delta is bit-identical to an in-process `launch` of the same spec,
//!   whichever context of the matrix the daemon serves in;
//! * **fairness** — a heavyweight tenant saturating the pool with large
//!   fresh-content launches does not starve a probe fleet: probe p99
//!   stays under a generous ceiling, and every probe still returns
//!   bit-identical stats;
//! * **quotas** — over-budget launches come back as typed `Rejected`,
//!   a zero-depth queue as typed `Throttled`; the connection survives
//!   both and keeps serving.

use g80::isa::Value;
use g80::serve::{serve, Addr, Client, Quota, ServeConfig, WireError, WireLaunch};
use g80::sim::{launch, DeviceMemory, GpuConfig, LaunchDims};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

mod common;
use common::Scale;

const TPB: u32 = 64;

/// A spec processing `n` elements in-place-adjacent (input words at 0,
/// output words at n*4), with deterministic per-tenant input.
fn scale_spec(name: &str, mult: u32, salt: u32, n: u32) -> WireLaunch {
    let mut spec = WireLaunch::new(
        Scale::kernel(name, mult, salt),
        LaunchDims {
            grid: (n / TPB, 1),
            block: (TPB, 1, 1),
        },
        vec![Value::from_u32(0), Value::from_u32(n * 4)],
        2 * n * 4,
    );
    spec.writes = (0..n)
        .map(|i| (i * 4, i.wrapping_mul(2654435761).wrapping_add(salt)))
        .collect();
    spec
}

/// Runs `spec` in-process on a fresh memory and returns
/// (stats, sparse delta) exactly as the daemon computes them.
fn run_inprocess(cfg: &GpuConfig, spec: &WireLaunch) -> (g80::sim::KernelStats, Vec<(u32, u32)>) {
    let mem = DeviceMemory::new(spec.mem_bytes);
    for &(addr, word) in &spec.writes {
        mem.write(addr, Value(word));
    }
    let before = mem.snapshot_words();
    let stats = launch(cfg, &spec.kernel, spec.dims, &spec.params, &mem).expect("launch");
    let after = mem.snapshot_words();
    let delta = before
        .iter()
        .zip(after.iter())
        .enumerate()
        .filter(|(_, (b, a))| b != a)
        .map(|(i, (_, a))| ((i * 4) as u32, *a))
        .collect();
    (stats, delta)
}

fn start_daemon(quota: Quota) -> (g80::serve::Server, Addr) {
    let cfg = ServeConfig {
        addr: Addr::parse("tcp:127.0.0.1:0").unwrap(),
        quota,
        gpu: GpuConfig::geforce_8800_gtx(),
        ..ServeConfig::default()
    };
    let server = serve(cfg).expect("bind daemon");
    let addr = server.local_addr().clone();
    (server, addr)
}

fn stop_daemon(server: g80::serve::Server, addr: &Addr) {
    let mut admin = Client::connect(addr, "admin").expect("admin connect");
    admin.shutdown().expect("shutdown");
    server.join().expect("drain");
}

#[test]
fn eight_tenants_get_bit_identical_stats() {
    for (daemon_ctx, ctx) in common::contexts().iter() {
        // The daemon serves in the context it is started in; the tenants'
        // in-process references run in their own threads' (global) one.
        let (server, addr) = ctx.enter(|| start_daemon(Quota::default()));
        let gpu = GpuConfig::geforce_8800_gtx();

        let workers: Vec<_> = (0..8u32)
            .map(|t| {
                let addr = addr.clone();
                let gpu = gpu.clone();
                std::thread::spawn(move || {
                    let mut client =
                        Client::connect(&addr, &format!("tenant-{t}")).expect("connect");
                    // Distinct content per tenant AND per iteration: nothing
                    // can hide behind another tenant's memo entry having the
                    // same stats by construction.
                    for iter in 0..4u32 {
                        let spec = scale_spec("sd_golden", 3 + t, t << 8 | iter, 512);
                        let (want_stats, want_delta) = run_inprocess(&gpu, &spec);
                        let (report, delta) = client
                            .launch(&spec)
                            .expect("transport")
                            .expect("typed error");
                        assert_eq!(report.stats.cycles, want_stats.cycles, "tenant {t}");
                        assert_eq!(
                            report.stats.warp_instructions, want_stats.warp_instructions,
                            "tenant {t}"
                        );
                        assert_eq!(
                            report.stats.stall_cycles, want_stats.stall_cycles,
                            "tenant {t}"
                        );
                        assert_eq!(report.stats.by_class, want_stats.by_class, "tenant {t}");
                        assert_eq!(
                            report.stats.global_bytes, want_stats.global_bytes,
                            "tenant {t}"
                        );
                        assert_eq!(delta, want_delta, "tenant {t} memory delta");
                    }
                    // The streamed path returns the same reports.
                    let specs: Vec<_> = (0..3u32)
                        .map(|i| scale_spec("sd_batch", 3 + t, t << 8 | 0x1000 | i, 256))
                        .collect();
                    let (items, _counters, _net) = client
                        .batch(&specs)
                        .expect("transport")
                        .expect("typed error");
                    assert_eq!(items.len(), 3);
                    for (i, (item, spec)) in items.iter().zip(&specs).enumerate() {
                        let report = item.as_ref().expect("item ok");
                        let (want_stats, _) = run_inprocess(&gpu, spec);
                        assert_eq!(
                            report.stats.cycles, want_stats.cycles,
                            "tenant {t} item {i}"
                        );
                        assert_eq!(
                            report.stats.warp_instructions, want_stats.warp_instructions,
                            "tenant {t} item {i}"
                        );
                    }
                })
            })
            .collect();
        for w in workers {
            w.join()
                .unwrap_or_else(|_| panic!("daemon in context {daemon_ctx:?}: tenant thread"));
        }

        assert!(server.requests_served() >= 8 * 5);
        stop_daemon(server, &addr);
    }
}

#[test]
fn probe_fleet_p99_is_bounded_under_heavyweight_tenant() {
    let (server, addr) = start_daemon(Quota::default());

    // The heavyweight: 4096-block launches with fresh content every
    // iteration (the salt lands in the instruction stream), so each one
    // must actually simulate through the shared pool — no memo shortcuts.
    let stop = Arc::new(AtomicBool::new(false));
    let heavy = {
        let addr = addr.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut client = Client::connect(&addr, "heavy").expect("connect");
            let mut iter = 0u32;
            loop {
                let spec = scale_spec("sd_heavy", 7, 0xbeef_0000 | iter, 4096 * TPB);
                client
                    .launch(&spec)
                    .expect("transport")
                    .expect("heavy launch");
                iter += 1;
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            iter
        })
    };

    // Probe fleet: small launches that ride the caller-runs fast path, so
    // admission fairness (not pool queueing) is what the ceiling tests.
    let probes: Vec<_> = (0..4u32)
        .map(|p| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr, &format!("probe-{p}")).expect("connect");
                let gpu = GpuConfig::geforce_8800_gtx();
                let spec = scale_spec("sd_probe", 11 + p, p << 4, 256);
                let (want_stats, _) = run_inprocess(&gpu, &spec);
                let mut latencies = Vec::with_capacity(24);
                for _ in 0..24 {
                    let t0 = Instant::now();
                    let (report, _) = client
                        .launch(&spec)
                        .expect("transport")
                        .expect("probe launch");
                    latencies.push(t0.elapsed());
                    assert_eq!(report.stats.cycles, want_stats.cycles, "probe {p}");
                }
                latencies.sort_unstable();
                latencies[latencies.len() - 1 - latencies.len() / 100]
            })
        })
        .collect();

    let mut worst_p99 = Duration::ZERO;
    for p in probes {
        worst_p99 = worst_p99.max(p.join().expect("probe thread"));
    }
    stop.store(true, Ordering::Relaxed);
    let heavy_iters = heavy.join().expect("heavy thread");
    assert!(heavy_iters > 0, "the heavyweight tenant never ran");

    // Generous ceiling: a 256-thread probe simulates in well under a
    // millisecond; the bound catches starvation (probes queued behind
    // 4096-block launches), not scheduler jitter.
    assert!(
        worst_p99 < Duration::from_millis(1000),
        "probe p99 {worst_p99:?} under heavyweight load"
    );
    stop_daemon(server, &addr);
}

#[test]
fn quota_violations_are_typed_and_survivable() {
    // Daemon A: per-launch cap of 4 blocks.
    let (server, addr) = start_daemon(Quota {
        max_blocks_per_launch: 4,
        ..Quota::default()
    });
    let mut client = Client::connect(&addr, "greedy").expect("connect");
    let big = scale_spec("sd_big", 3, 1, 16 * TPB); // 16 blocks > cap 4
    match client.launch(&big).expect("transport") {
        Err(WireError::Rejected(reason)) => {
            assert!(reason.contains('4'), "reason should name the cap: {reason}")
        }
        other => panic!("expected Rejected, got {other:?}"),
    }
    // Same connection still serves an in-budget launch afterwards.
    let small = scale_spec("sd_small", 3, 2, 4 * TPB);
    let (report, _) = client
        .launch(&small)
        .expect("transport")
        .expect("in-budget launch");
    assert!(report.stats.cycles > 0);
    stop_daemon(server, &addr);

    // Daemon B: zero queue depth — every admission throttles.
    let (server, addr) = start_daemon(Quota {
        max_queued: 0,
        ..Quota::default()
    });
    let mut client = Client::connect(&addr, "throttled").expect("connect");
    match client.launch(&small).expect("transport") {
        Err(WireError::Throttled(_)) => {}
        other => panic!("expected Throttled, got {other:?}"),
    }
    // The connection survives a throttle too (a real client would back
    // off and resend; here the quota makes every retry throttle again).
    match client.launch(&small).expect("transport") {
        Err(WireError::Throttled(_)) => {}
        other => panic!("expected Throttled again, got {other:?}"),
    }
    stop_daemon(server, &addr);
}
