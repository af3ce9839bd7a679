//! Chaos contract for the serve layer: transport faults on the wire,
//! injected by the frame proxy of `common::proxy` between client and
//! daemon, surface as typed errors or are recovered, never as a dropped
//! daemon or a wrong answer —
//!
//! * a mid-stream disconnect during a streamed sweep is survived by
//!   reconnect-and-replay, and `SweepResult::from_parts`
//!   reassembles the same result the clean wire produced; so is every
//!   fault kind (the wire chaos legs);
//! * frame corruption at rate 1.0 yields typed errors (`BadFrame`, CRC
//!   mismatches) on a bounded schedule — never a panic, never a hang —
//!   and the same connection recovers bit-identically once the proxy is
//!   clean again;
//! * a slow-loris client stalled mid-frame is reaped by the read
//!   deadline, freeing its connection slot (and while it holds the only
//!   slot, new tenants are shed with a typed `Overloaded`);
//! * each client recovery (resend in place, reconnect and replay) adds
//!   exactly its own tally, one fault at a time;
//! * two proxied fleets in sequence on one disk directory: the first
//!   drains cleanly, the second is answered from the disk tier.
//!
//! Each test runs its daemon and its clients in fresh contexts of its own,
//! so the tests run in parallel, whatever the environment configures the
//! global context with.

use common::proxy::{wire_legs, Dir, Kind, Plan, Proxy};
use g80::isa::builder::{KernelBuilder, Unroll};
use g80::isa::Value;
use g80::serve::run_fleet;
use g80::serve::{serve, Addr, Client, Request, Response, ServeConfig, WireError, WireLaunch};
use g80::sim::{memo_counters, net_counters, LaunchDims, NetCounters, SimConfig, SimContext};
use g80::tune::{Sample, SweepResult};
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

mod common;

/// A fresh context.
fn context() -> Arc<SimContext> {
    SimContext::new(SimConfig::default())
}

/// How long a client through a faulty proxy retries its connect: a fire
/// on its Hello ends that attempt.
const CONNECT: Duration = Duration::from_secs(10);

fn probe_spec(salt: u32) -> WireLaunch {
    let mut b = KernelBuilder::new("sc_probe");
    let p = b.param();
    let tid = b.tid_x();
    let byte = b.shl(tid, 2u32);
    let addr = b.iadd(byte, p);
    let v = b.ld_global(addr, 0);
    let w = b.iadd(v, salt);
    b.st_global(addr, 0, w);
    let mut spec = WireLaunch::new(
        b.build(),
        LaunchDims {
            grid: (4, 1),
            block: (64, 1, 1),
        },
        vec![Value::from_u32(0)],
        4 * 64 * 4,
    );
    spec.writes = (0..4 * 64).map(|i| (i * 4, i * 3)).collect();
    spec
}

fn default_daemon() -> (g80::serve::Server, Addr) {
    let server = serve(ServeConfig {
        addr: Addr::parse("tcp:127.0.0.1:0").unwrap(),
        ..ServeConfig::default()
    })
    .expect("bind daemon");
    let addr = server.local_addr().clone();
    (server, addr)
}

/// A served sweep under wire faults equals the clean wire, bit for bit,
/// and the proxy fired. The inputs: mid-stream disconnects, which the
/// client must survive by reconnecting and replaying until the whole stream
/// lands, then the wire legs of [`wire_legs`], every transport fault kind
/// at two seeds. Each input runs its own daemon in a fresh context, behind
/// its own proxy.
#[test]
fn mid_stream_disconnect_resumes_sweep_via_replay() {
    let specs: Vec<WireLaunch> = (0..12u32).map(|i| probe_spec(100 + i)).collect();
    let (clean, _) = context().enter(|| served_sweeps(&specs, Plan::Clean));
    let golden = &clean[0];
    assert!(
        !golden.net.any(),
        "clean wire reported transport faults: {:?}",
        golden.net
    );

    // Disconnect-only faults in both directions, at a seed and rate that
    // force at least one reconnect against this deterministic plan.
    let disconnect = Plan::only(0xD15C_0441, 0.03, &[Kind::Disconnect]);
    let inputs = std::iter::once(("disconnect", disconnect.clone())).chain(wire_legs());
    for (name, plan) in inputs {
        let (rounds, fired) = context().enter(|| served_sweeps(&specs, plan.clone()));
        assert!(
            fired > 0,
            "{name}: no wire fault fired in {} sweeps",
            rounds.len()
        );
        for (round, chaos) in rounds.iter().enumerate() {
            assert_eq!(chaos.best, golden.best, "{name}, sweep {round}: winner");
            assert_eq!(chaos.samples.len(), golden.samples.len());
            for (i, (c, g)) in chaos.samples.iter().zip(&golden.samples).enumerate() {
                assert_eq!(
                    common::stats_bytes(&c.stats),
                    common::stats_bytes(&g.stats),
                    "{name}, sweep {round}, item {i}"
                );
            }
        }
        if plan == disconnect {
            assert!(
                rounds.iter().any(|r| r.net.reconnects >= 1),
                "the fault plan never forced a reconnect — pick a hotter seed"
            );
        }
    }
}

/// Sweeps `specs` through a daemon in the current context behind a proxy
/// running `plan`, one sweep per round until the proxy has fired (at most
/// eight rounds), and returns each round's result with the client's
/// recovery tally, and the proxy's fires.
fn served_sweeps(specs: &[WireLaunch], plan: Plan) -> (Vec<SweepResult<u32>>, u64) {
    let (server, addr) = default_daemon();
    let proxy = Proxy::start(&addr.to_string(), plan);
    let via = Addr::parse(proxy.addr()).unwrap();
    let mut client = Client::connect_retry(&via, "sweeper", CONNECT).expect("connect");
    let mut rounds = Vec::new();
    while rounds.len() < 8 {
        let (items, counters, net) = client
            .sweep(specs)
            .expect("recovery must absorb wire faults")
            .expect("typed error under chaos");
        let samples = items
            .iter()
            .enumerate()
            .map(|(i, r)| Sample {
                config: i as u32,
                stats: r.as_ref().expect("item ok").stats.clone(),
            })
            .collect();
        rounds.push(SweepResult::from_parts(samples, counters, net));
        if proxy.fired_total() > 0 {
            break;
        }
    }
    shutdown(server, &addr);
    (rounds, proxy.fired_total())
}

/// Drains the daemon at `addr` over a direct connection, past any proxy.
fn shutdown(server: g80::serve::Server, addr: &Addr) {
    let mut admin = Client::connect(addr, "admin").expect("admin connect");
    admin.shutdown().expect("clean shutdown");
    server.join().expect("drain");
}

/// Corruption at rate 1.0 — every frame in both directions gets a bit
/// flipped. Nothing decodes garbled: each exchange terminates promptly
/// with a typed `BadFrame` or a CRC-mismatch error, the connection never
/// desynchronizes, and once the proxy is clean again the SAME connection
/// serves bit-identically.
#[test]
fn corrupt_storm_is_typed_bounded_and_recoverable() {
    context().enter(corrupt_storm);
}

fn corrupt_storm() {
    let (server, addr) = default_daemon();
    let proxy = Proxy::start(&addr.to_string(), Plan::Clean);
    let via = Addr::parse(proxy.addr()).unwrap();
    let mut client = Client::connect(&via, "storm").expect("connect");
    let spec = probe_spec(77);
    let req = Request::Launch(spec.clone());
    let (golden, golden_delta) = match client.request_raw(&req).expect("transport") {
        Response::Launch { result } => result.expect("clean launch"),
        other => panic!("unexpected response {other:?}"),
    };

    proxy.plan(Plan::only(0xBADC_0DE5, 1.0, &[Kind::Corrupt]));
    for i in 0..4 {
        let t0 = Instant::now();
        match client.request_raw(&req) {
            // Our request was caught by the daemon's CRC and answered with
            // a typed BadFrame that happened to survive the return trip.
            Ok(Response::Error(WireError::BadFrame(_))) => {}
            Ok(other) => panic!("corrupt frame decoded to {other:?} (iter {i})"),
            // The response frame was corrupted on its way back.
            Err(e) => assert!(
                g80::serve::is_crc_mismatch(&e),
                "expected a CRC mismatch, got {e:?} (iter {i})"
            ),
        }
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "a corrupt exchange must fail fast, took {:?}",
            t0.elapsed()
        );
    }
    assert_eq!(
        (proxy.fired(Dir::Up), proxy.fired(Dir::Down)),
        (4, 4),
        "every frame each way is corrupted"
    );
    // The recovering path gives up with an error after bounded retries —
    // it must not spin forever against a wire that corrupts everything.
    let t0 = Instant::now();
    let recovered = client.launch(&spec);
    assert!(
        matches!(&recovered, Ok(Err(_)) | Err(_)),
        "launch succeeded through rate-1.0 corruption: {recovered:?}"
    );
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "bounded retries took {:?}",
        t0.elapsed()
    );

    // A clean proxy: the same connection is still synchronized.
    proxy.plan(Plan::Clean);
    let (report, delta) = client
        .launch(&spec)
        .expect("transport after storm")
        .expect("launch after storm");
    assert_eq!(report.stats.cycles, golden.stats.cycles);
    assert_eq!(
        report.stats.warp_instructions,
        golden.stats.warp_instructions
    );
    assert_eq!(delta, golden_delta);
    shutdown(server, &addr);
}

/// A slow-loris tenant — two header bytes, then silence — must be reaped
/// by the mid-frame deadline, and its connection slot handed to the next
/// tenant. While it squats on the only slot, new connections get a typed
/// `Overloaded` shed, not a hang.
#[test]
fn slow_client_is_reaped_and_slot_freed() {
    context().enter(slow_client_is_reaped);
}

fn slow_client_is_reaped() {
    let server = serve(ServeConfig {
        addr: Addr::parse("tcp:127.0.0.1:0").unwrap(),
        read_timeout: Some(Duration::from_millis(400)),
        max_conns: 1,
        ..ServeConfig::default()
    })
    .expect("bind daemon");
    let addr = server.local_addr().clone();

    // The slow-loris: starts a frame, never finishes it.
    let mut loris = g80::serve::connect(&addr).expect("loris connect");
    loris.write_all(&[0x10, 0x00]).expect("partial header");
    loris.flush().expect("flush");
    // Let the accept loop claim the only slot for the loris.
    std::thread::sleep(Duration::from_millis(150));

    // Second tenant while the slot is squatted: typed shed, fast failure.
    let shed_attempt = Client::connect(&addr, "tenant-2");
    assert!(
        shed_attempt.is_err(),
        "connect must fail while the only slot is held"
    );
    assert!(server.shed() >= 1, "the refusal was not a counted shed");

    // The mid-frame deadline reaps the loris...
    let t0 = Instant::now();
    while server.reaped() == 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "slow-loris was never reaped"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // ...and the freed slot serves the next tenant normally.
    let mut c2 =
        Client::connect_retry(&addr, "tenant-2", Duration::from_secs(10)).expect("slot freed");
    c2.launch(&probe_spec(9))
        .expect("transport")
        .expect("launch");
    drop(loris);
    c2.shutdown().expect("clean shutdown");
    server.join().expect("drain");
}

/// What each recovery action adds to the client's tally, one fault at a
/// time: the proxy faults exactly one frame of one direction per request,
/// and the daemon's context is not the client's, so every counter delta
/// is exact.
///
/// * an in-place resend adds one frame retried and the frame's bytes;
/// * a reconnect adds one disconnect, one reconnect and the frame's bytes;
/// * a CRC failure inside a sweep's stream reconnects instead of resending
///   in place: one frame retried and one reconnect, each with the frame's
///   bytes, and no disconnect.
#[test]
fn each_recovery_action_is_tallied_exactly() {
    let daemon_ctx = context();
    let (server, addr) = daemon_ctx.enter(default_daemon);
    let proxy = Proxy::start(&addr.to_string(), Plan::Clean);
    context().enter(|| recovery_tallies(&proxy));
    daemon_ctx.enter(|| shutdown(server, &addr));
}

fn recovery_tallies(proxy: &Proxy) {
    let via = Addr::parse(proxy.addr()).unwrap();
    let mut client = Client::connect(&via, "tally").expect("connect");
    let spec = probe_spec(41);
    let specs: Vec<WireLaunch> = (0..4u32).map(|i| probe_spec(200 + i)).collect();
    let launch_len = Request::Launch(spec.clone()).encode().len() as u64;
    let sweep_len = Request::Sweep(specs.clone()).encode().len() as u64;
    let golden_launch = client.launch(&spec).expect("transport").expect("launch");
    let sweep_cycles = |client: &mut Client| -> Vec<u64> {
        let (items, _, _) = client.sweep(&specs).expect("transport").expect("sweep");
        items
            .iter()
            .map(|r| r.as_ref().expect("item ok").stats.cycles)
            .collect()
    };
    let golden_sweep = sweep_cycles(&mut client);

    // Faults frame `index` of `dir` as `kind` around one request, checks
    // the proxy fired once, there, and returns the tally delta. Frames
    // count from the request: its own is `Up` 0, its first answer `Down` 0.
    let tally = |dir, index, kind, request: &mut dyn FnMut()| -> NetCounters {
        let before = net_counters();
        proxy.plan(Plan::Exact { dir, index, kind });
        request();
        assert_eq!(proxy.log(), [(dir, index)], "{kind:?} at {dir:?} {index}");
        proxy.plan(Plan::Clean);
        net_counters().since(&before)
    };
    let mut launch = || {
        let (report, delta) = client.launch(&spec).expect("transport").expect("launch");
        assert_eq!(report.stats.cycles, golden_launch.0.stats.cycles);
        assert_eq!(delta, golden_launch.1);
    };
    let resent = |bytes| NetCounters {
        frames_retried: 1,
        bytes_resent: bytes,
        ..NetCounters::default()
    };
    let reconnected = |bytes| NetCounters {
        disconnects: 1,
        bytes_resent: bytes,
        reconnects: 1,
        ..NetCounters::default()
    };
    use Dir::{Down, Up};
    use Kind::{Corrupt, Disconnect};

    // Single launches: the daemon's BadFrame and a local CRC failure both
    // resend in place; a torn connection reconnects and replays.
    assert_eq!(tally(Up, 0, Corrupt, &mut launch), resent(launch_len));
    assert_eq!(tally(Down, 0, Corrupt, &mut launch), resent(launch_len));
    assert_eq!(
        tally(Up, 0, Disconnect, &mut launch),
        reconnected(launch_len)
    );

    let sweep = &mut || assert_eq!(sweep_cycles(&mut client), golden_sweep);
    // A streamed sweep: a BadFrame before the stream resends in place; a
    // CRC failure or a disconnect at its third item reconnects.
    assert_eq!(tally(Up, 0, Corrupt, sweep), resent(sweep_len));
    assert_eq!(
        tally(Down, 2, Corrupt, sweep),
        NetCounters {
            frames_retried: 1,
            bytes_resent: 2 * sweep_len,
            reconnects: 1,
            ..NetCounters::default()
        }
    );
    assert_eq!(tally(Down, 2, Disconnect, sweep), reconnected(sweep_len));
}

/// The proxy replays its plan: one seed fires on the same frames run after
/// run — those the plan names — and an exact-frame plan fires once. The
/// daemon here is an echo peer, so every frame the proxy sends up comes
/// back down as the next frame of the other direction.
#[test]
fn proxy_fires_where_its_plan_says() {
    let echo = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let upstream = echo.local_addr().unwrap().to_string();
    // One connection per `run` below; each echoes until its peer closes.
    let echoes = std::thread::spawn(move || {
        for conn in echo.incoming().take(3) {
            let mut conn = conn.unwrap();
            let mut back = conn.try_clone().unwrap();
            std::io::copy(&mut conn, &mut back).unwrap();
        }
    });
    // Sends `n` frames one at a time and returns which came back whole.
    let run = |plan: Plan, n: u32| -> (Vec<(Dir, u64)>, Vec<bool>) {
        let proxy = Proxy::start(&upstream, plan);
        let conn = g80::serve::connect(&Addr::parse(proxy.addr()).unwrap()).unwrap();
        let mut framed = g80::serve::FramedStream::new(conn);
        let intact = (0..n)
            .map(|i| {
                framed.write_frame(&i.to_le_bytes()).unwrap();
                match framed.read_frame() {
                    Ok(frame) => frame.as_deref() == Some(&i.to_le_bytes()[..]),
                    Err(e) => !g80::serve::is_crc_mismatch(&e),
                }
            })
            .collect();
        (proxy.log(), intact)
    };
    let seeded = Plan::only(0x5EED, 0.2, &[Kind::Corrupt, Kind::Split]);
    let (fires, _) = run(seeded.clone(), 40);
    assert!(!fires.is_empty(), "rate 0.2 over 80 frames never fired");
    assert_eq!(run(seeded.clone(), 40).0, fires, "same seed, same frames");
    let planned: Vec<(Dir, u64)> = [Dir::Up, Dir::Down]
        .into_iter()
        .flat_map(|d| (0..40).map(move |i| (d, i)))
        .filter(|&(d, i)| seeded.decide(d, i).is_some())
        .collect();
    let mut sorted = fires.clone();
    sorted.sort_by_key(|&(d, i)| (d as u8, i));
    assert_eq!(sorted, planned, "the proxy fires where the plan says");

    let exact = Plan::Exact {
        dir: Dir::Up,
        index: 3,
        kind: Kind::Corrupt,
    };
    let (fires, intact) = run(exact, 8);
    assert_eq!(fires, [(Dir::Up, 3)]);
    let expected: Vec<bool> = (0..8).map(|i| i != 3).collect();
    assert_eq!(intact, expected, "only frame 3 fails its CRC");
    echoes.join().unwrap();
}

/// The two-process serve run CI used to repeat with the wire armed, in
/// process: for each of two seeds, two daemons in sequence, each in a
/// fresh context, share one disk directory, each behind a proxy running
/// the seed over every fault kind. The first serves an 8-tenant × 32 probe
/// fleet and drains cleanly; the second, cold in memory, answers an 8 × 1
/// fleet from the disk tier.
#[test]
fn proxied_fleets_drain_and_warm_the_disk_tier() {
    for seed in [11, 12] {
        let dir = common::scratch_dir("proxied-fleet");
        let mut fired = 0;
        for (requests, warm) in [(32, false), (1, true)] {
            let ctx = SimContext::new(SimConfig {
                disk_dir: Some(dir.clone()),
                ..SimConfig::default()
            });
            let fleet = ctx.enter(|| {
                let (server, addr) = default_daemon();
                let proxy = Proxy::start(&addr.to_string(), Plan::seeded(seed, 0.02));
                let via = Addr::parse(proxy.addr()).unwrap();
                let fleet = run_fleet(&via, 8, requests, |t, _| g80::serve::probe_spec(t));
                fired += proxy.fired_total();
                shutdown(server, &addr);
                fleet.unwrap_or_else(|e| panic!("seed {seed}, {requests} requests: {e}"))
            });
            assert_eq!(fleet.latencies.len(), 8 * requests);
            let disk_hits = ctx.enter(memo_counters).disk_hits;
            if warm {
                assert!(
                    disk_hits > 0,
                    "seed {seed}: the fresh daemon read no disk entry"
                );
            }
        }
        assert!(fired > 0, "seed {seed}: the proxy never fired");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A chaos request: a loop kernel with a param unique to (tenant, request),
/// so every launch simulates real work (~milliseconds). On memo-hit probes
/// the 0.4 ms round trips would be dwarfed by any injected stall and the
/// ratio would measure the fault plan, not the recovery cost.
fn chaos_spec(tenant: usize, req: usize) -> WireLaunch {
    let mut b = KernelBuilder::new("bench_serve_chaos_probe");
    let p = b.param();
    let tid = b.tid_x();
    let acc0 = b.iadd(tid, p);
    let acc = b.mov(acc0);
    b.for_range(0u32, 256u32, 1, Unroll::None, |b, _| {
        let t = b.imul(acc, 1664525u32);
        let t2 = b.iadd(t, 1013904223u32);
        b.mov_to(acc, t2);
    });
    let byte = b.shl(tid, 2u32);
    b.st_global(byte, 0, acc);
    let dims = LaunchDims {
        grid: (8, 1),
        block: (128, 1, 1),
    };
    let param = Value::from_u32((tenant * 100_000 + req) as u32);
    WireLaunch::new(b.build(), dims, vec![param], 8 * 128 * 4)
}

/// An 8-tenant × 32 fleet of simulating requests, each arm in a fresh
/// context (dedup off) behind a proxy: clean, then faulting frames at rate
/// 0.02 over every kind. Chaos must leave the aggregate stats bit-identical
/// (reconnect and replay are invisible), serve at least 100 req/s, and cost
/// at most 2x the clean arm's throughput. A timing test: run it with
/// `cargo test --release --test serve_chaos -- --ignored`.
#[test]
#[ignore = "timing: run under --release"]
fn chaos_fleet_keeps_results_and_throughput() {
    let arm = |plan: Plan| {
        let ctx = SimContext::new(SimConfig {
            dedup: false,
            ..SimConfig::default()
        });
        ctx.enter(|| {
            let (server, addr) = default_daemon();
            let proxy = Proxy::start(&addr.to_string(), plan);
            let via = Addr::parse(proxy.addr()).unwrap();
            let fleet = run_fleet(&via, 8, 32, chaos_spec).expect("fleet");
            let fired = proxy.fired_total();
            shutdown(server, &addr);
            (fleet, net_counters(), fired)
        })
    };
    let (clean, _, _) = arm(Plan::Clean);
    let (chaos, net, fired) = arm(Plan::seeded(0xC0FF_EE00, 0.02));
    let ratio = clean.req_per_s() / chaos.req_per_s();
    println!(
        "clean {:.0} req/s, chaos {:.0} req/s, ratio {ratio:.2}, {fired} fires, {net:?}",
        clean.req_per_s(),
        chaos.req_per_s()
    );
    assert!(fired > 0, "the proxy never fired");
    assert_eq!(
        clean.totals, chaos.totals,
        "transport chaos changed aggregate KernelStats"
    );
    assert!(
        chaos.req_per_s() >= 100.0,
        "chaos {:.0} req/s",
        chaos.req_per_s()
    );
    assert!(ratio <= 2.0, "clean/chaos throughput {ratio:.2}");
}
