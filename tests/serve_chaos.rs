//! Chaos contract for the serve layer: injected faults at the
//! `serve.decode` site surface as *typed responses on a surviving
//! connection*, never as dropped connections or a dead daemon.
//!
//! * typed kind → `WireError::Fault { site: "serve.decode" }`;
//! * panic kind → `WireError::Panic("injected panic at ...")` — the
//!   handler's unwind is caught, the frame stream stays synchronized;
//! * both classify as injected, so the client's transparent retry
//!   absorbs them at partial rates and launches stay bit-identical;
//! * disarmed, the same connection serves normally and the daemon drains
//!   cleanly.
//!
//! Plus the *network* chaos matrix (a context's wire schedule): seeded
//! transport faults on the wire itself —
//!
//! * a mid-stream disconnect during a streamed sweep is survived by
//!   reconnect-and-replay, and `SweepResult::from_parts_with_net`
//!   reassembles the same result the clean wire produced;
//! * frame corruption at rate 1.0 yields typed errors (`BadFrame`, CRC
//!   mismatches) on a bounded schedule — never a panic, never a hang —
//!   and the same connection recovers bit-identically once disarmed;
//! * a slow-loris client stalled mid-frame is reaped by the read
//!   deadline, freeing its connection slot (and while it holds the only
//!   slot, new tenants are shed with a typed `Overloaded`).
//!
//! Each test runs its daemon and its clients in a fresh context of its own
//! and arms that context's schedules in place, so the tests run in
//! parallel, whatever the environment arms the global context with.

use g80::isa::builder::KernelBuilder;
use g80::isa::Value;
use g80::serve::{
    serve, Addr, Client, NetFaultConfig, NetFaultKind, Quota, Request, Response, ServeConfig,
    WireError, WireLaunch,
};
use g80::sim::fault::{FaultConfig, FaultKind, Site};
use g80::sim::{GpuConfig, LaunchDims, SimConfig, SimContext};
use g80::tune::tuner::{Sample, SweepResult};
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A fresh context, both fault schedules disarmed.
fn context() -> Arc<SimContext> {
    SimContext::new(SimConfig::default())
}

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

#[test]
fn serve_decode_faults_are_typed_and_survivable() {
    let ctx = context();
    ctx.enter(|| serve_decode_faults(&ctx));
}

fn serve_decode_faults(ctx: &SimContext) {
    let server = serve(ServeConfig {
        addr: Addr::parse("tcp:127.0.0.1:0").unwrap(),
        quota: Quota::default(),
        gpu: GpuConfig::geforce_8800_gtx(),
        ..ServeConfig::default()
    })
    .expect("bind daemon");
    let addr = server.local_addr().clone();

    let mut client = Client::connect(&addr, "chaos").expect("connect");
    client.set_retry_injected(false);
    let spec = probe_spec(5);
    let req = Request::Launch(spec.clone());

    // Golden response on the untampered connection.
    let (golden, golden_delta) = match client.request_raw(&req).expect("transport") {
        Response::Launch { result } => result.expect("clean launch"),
        other => panic!("unexpected response {other:?}"),
    };
    assert!(!golden_delta.is_empty(), "the probe writes memory");

    // ---- typed kind, rate 1.0: every frame is tampered ----
    let arm = |rate, kind| {
        let cfg = FaultConfig::new(0x5e27e, rate, Some(kind)).only(Site::ServeDecode);
        ctx.faults().arm(Some(cfg));
    };
    arm(1.0, FaultKind::Typed);
    for _ in 0..3 {
        match client.request_raw(&req).expect("connection must survive") {
            Response::Error(e) => {
                assert!(e.is_injected(), "{e:?}");
                match e {
                    WireError::Fault { site } => assert_eq!(site, "serve.decode"),
                    other => panic!("expected a typed Fault, got {other:?}"),
                }
            }
            other => panic!("expected a typed Fault, got {other:?}"),
        }
    }

    // ---- panic kind: the unwind is caught, the connection survives ----
    arm(1.0, FaultKind::Panic);
    match client.request_raw(&req).expect("connection must survive") {
        Response::Error(e) => {
            assert!(e.is_injected(), "{e:?}");
            match e {
                WireError::Panic(msg) => assert!(
                    msg.starts_with("injected panic at "),
                    "panic payload should classify: {msg}"
                ),
                other => panic!("expected a typed Panic, got {other:?}"),
            }
        }
        other => panic!("expected a typed Panic, got {other:?}"),
    }
    assert_eq!(
        ctx.faults().raised(Site::ServeDecode),
        1,
        "the serve.decode site fires once per frame since it was re-armed"
    );

    // ---- disarmed: the SAME connection serves bit-identically ----
    ctx.faults().arm(None);
    match client.request_raw(&req).expect("transport") {
        Response::Launch { result } => {
            let (report, delta) = result.expect("clean launch after chaos");
            assert_eq!(report.stats.cycles, golden.stats.cycles);
            assert_eq!(
                report.stats.warp_instructions,
                golden.stats.warp_instructions
            );
            assert_eq!(delta, golden_delta);
        }
        other => panic!("unexpected response {other:?}"),
    }

    // ---- partial rate + transparent retry: chaos is invisible ----
    arm(0.5, FaultKind::Typed);
    client.set_retry_injected(true);
    for i in 0..8u32 {
        let (report, delta) = client
            .launch(&spec)
            .expect("transport")
            .expect("retry must absorb injected faults");
        assert_eq!(report.stats.cycles, golden.stats.cycles, "iter {i}");
        assert_eq!(delta, golden_delta, "iter {i}");
    }
    assert!(
        ctx.faults().raised(Site::ServeDecode) > 0,
        "rate 0.5 never fired"
    );
    ctx.faults().arm(None);

    let mut admin = Client::connect(&addr, "admin").expect("admin connect");
    admin.shutdown().expect("clean shutdown");
    server.join().expect("drain");
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

/// Mid-stream disconnects during a streamed sweep: the client must
/// reconnect and replay until the whole stream lands, the reassembled
/// `SweepResult` must match the clean wire bit-for-bit, and the fault
/// tally must show the recovery actually happened (the schedule fired).
#[test]
fn mid_stream_disconnect_resumes_sweep_via_replay() {
    let ctx = context();
    ctx.enter(|| mid_stream_disconnect(&ctx));
}

fn mid_stream_disconnect(ctx: &SimContext) {
    let (server, addr) = default_daemon();
    let mut client = Client::connect(&addr, "sweeper").expect("connect");
    let specs: Vec<WireLaunch> = (0..12u32).map(|i| probe_spec(100 + i)).collect();

    // Golden: the clean wire.
    let (golden_items, golden_counters, golden_net) = client
        .sweep(&specs)
        .expect("clean transport")
        .expect("clean sweep");
    assert!(
        !golden_net.any(),
        "clean wire reported transport faults: {golden_net:?}"
    );
    let to_samples = |items: &[Result<g80::sim::LaunchReport, WireError>]| -> Vec<Sample<u32>> {
        items
            .iter()
            .enumerate()
            .map(|(i, r)| Sample {
                config: i as u32,
                stats: r.as_ref().expect("item ok").stats.clone(),
            })
            .collect()
    };
    let golden = SweepResult::from_parts(to_samples(&golden_items), golden_counters);

    // Armed: disconnect-only faults on every wire site. The seed/rate pair
    // is fixed and was verified to fire at least one mid-stream disconnect
    // against this deterministic schedule.
    let disconnect = NetFaultConfig::only(0xD15C_0441, 0.03, NetFaultKind::Disconnect);
    ctx.net_faults().arm(Some(disconnect));
    let (items, counters, net) = client
        .sweep(&specs)
        .expect("recovery must absorb disconnects")
        .expect("typed error under chaos");
    ctx.net_faults().arm(None);

    assert!(
        net.reconnects >= 1,
        "the fault schedule never forced a reconnect — pick a hotter seed: {net:?}"
    );
    let chaos = SweepResult::from_parts_with_net(to_samples(&items), counters, net);
    assert_eq!(chaos.samples.len(), golden.samples.len());
    assert_eq!(chaos.best, golden.best, "replay changed the sweep winner");
    for (i, (c, g)) in chaos.samples.iter().zip(&golden.samples).enumerate() {
        assert_eq!(c.stats.cycles, g.stats.cycles, "item {i}");
        assert_eq!(
            c.stats.warp_instructions, g.stats.warp_instructions,
            "item {i}"
        );
        assert_eq!(c.stats.global_bytes, g.stats.global_bytes, "item {i}");
    }
    assert!(chaos.net.reconnects >= 1);

    let mut admin = Client::connect(&addr, "admin").expect("admin connect");
    admin.shutdown().expect("clean shutdown");
    server.join().expect("drain");
}

/// Corruption at rate 1.0 — every frame in every direction gets a bit
/// flipped. Nothing decodes garbled: each exchange terminates promptly
/// with a typed `BadFrame` or a CRC-mismatch error, the connection never
/// desynchronizes, and once disarmed the SAME connection serves
/// bit-identically.
#[test]
fn corrupt_storm_is_typed_bounded_and_recoverable() {
    let ctx = context();
    ctx.enter(|| corrupt_storm(&ctx));
}

fn corrupt_storm(ctx: &SimContext) {
    let (server, addr) = default_daemon();
    let mut client = Client::connect(&addr, "storm").expect("connect");
    client.set_retry_injected(false);
    let spec = probe_spec(77);
    let req = Request::Launch(spec.clone());
    let (golden, golden_delta) = match client.request_raw(&req).expect("transport") {
        Response::Launch { result } => result.expect("clean launch"),
        other => panic!("unexpected response {other:?}"),
    };

    let corrupt = NetFaultConfig::only(0xBADC_0DE5, 1.0, NetFaultKind::Corrupt);
    ctx.net_faults().arm(Some(corrupt));
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

    // Disarmed: the same connection is still synchronized.
    ctx.net_faults().arm(None);
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

    let mut admin = Client::connect(&addr, "admin").expect("admin connect");
    admin.shutdown().expect("clean shutdown");
    server.join().expect("drain");
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
    let mut loris = g80::serve::net::connect(&addr).expect("loris connect");
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
