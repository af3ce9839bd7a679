//! `serve_mix`: an in-process `g80-serve` daemon on loopback TCP with the
//! default quota, and two closed-loop clients (one tenant each) sending
//! `Client::launch` round trips in a seeded shuffle of three classes:
//!
//! * `probe` 87 % — per-tenant kernel, 8×128 threads, 4 KB image, memo hit;
//! * `bulk` 10 % — same kernel, 16 384-word (64 KB) image, memo hit: the
//!   same codec/CRC/hash path at 16× the payload;
//! * `sim` 3 % — unique param per request, 256-iteration loop kernel,
//!   always simulates.
//!
//! Closed loop because serve's callers (sweeps, CI probes) each wait for
//! their reply. The shares put p50 inside `probe`, p95 inside `bulk`
//! (ranks 87–97 %) and p99 inside `sim`; every block of 100 requests holds
//! exactly 87/10/3, so the percentiles do not wander between classes.

use super::{
    derive_seed, finish_trace, time_setups, Ctx, Twins, Window, STREAM_INPUTS, STREAM_MIX,
};
use crate::layers::{fidelity_walk, put, stats_digest, Globals, Metrics};
use crate::stats::{digest_words, end_to_end, median, percentile, Outcome, Phase, Rng, Round};
use crate::trace::{Span, Tracer, HARNESS};
use g80_apps::common::global_tid_x;
use g80_isa::builder::{KernelBuilder, Unroll};
use g80_isa::{Kernel, Value};
use g80_serve::{serve, Addr, Client, ServeConfig, Server, WireError, WireLaunch};
use g80_sim::{launch_reported, DeviceMemory, GpuConfig, LaunchDims, LaunchReport};
use std::sync::Barrier;
use std::time::{Duration, Instant};

pub const CLIENTS: usize = 2;
const SETUPS: usize = 9;
const THREADS: u32 = 8 * 128;
pub const PROBE_WORDS: u32 = 1024;
pub const BULK_WORDS: u32 = 16_384;
const LCG_MUL: u32 = 1_664_525;
const LCG_ADD: u32 = 1_013_904_223;
const SIM_ITERATIONS: u32 = 256;
/// Requests per schedule block and their split.
const BLOCK: usize = 100;
const BLOCK_BULK: usize = 10;
const BLOCK_SIM: usize = 3;
/// Blocks per client whose counts are reported (exact for one seed).
const COUNT_WINDOW_BLOCKS: usize = 20;
/// ≈130 000 round trips fit a 20 s run; p95 falls inside `bulk`.
const TAIL: f64 = 0.95;

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Class {
    Probe = 0,
    Bulk = 1,
    Sim = 2,
}

const CLASSES: [(Class, &str); 3] = [
    (Class::Probe, "probe"),
    (Class::Bulk, "bulk"),
    (Class::Sim, "sim"),
];

const DIMS: LaunchDims = LaunchDims {
    grid: (8, 1),
    block: (128, 1, 1),
};

/// One LCG step over the first 1024 words, in place; the tenant id is
/// baked into the kernel, so each tenant's kernel has its own content hash.
fn image_kernel(tenant: u32) -> Kernel {
    let mut b = KernelBuilder::new(&format!("serve_mix_image_{tenant}"));
    let p = b.param();
    let gid = global_tid_x(&mut b);
    let byte = b.shl(gid, 2u32);
    let addr = b.iadd(byte, p);
    let v = b.ld_global(addr, 0);
    let scaled = b.imul(v, LCG_MUL);
    let next = b.iadd(scaled, LCG_ADD.wrapping_add(tenant));
    b.st_global(addr, 0, next);
    b.build()
}

/// A `probe` (1024-word) or `bulk` (16 384-word) spec: the whole image
/// travels with the request and is hashed into the memo key.
pub fn image_spec(tenant: u32, words: u32, data_seed: u64) -> WireLaunch {
    let mut spec = WireLaunch::new(
        image_kernel(tenant),
        DIMS,
        vec![Value::from_u32(0)],
        words * 4,
    );
    let mut rng = Rng(data_seed);
    spec.writes = (0..words).map(|i| (i * 4, rng.next_u64() as u32)).collect();
    spec
}

pub fn sim_kernel() -> Kernel {
    let mut b = KernelBuilder::new("serve_mix_sim");
    let p = b.param();
    let gid = global_tid_x(&mut b);
    let start = b.iadd(gid, p);
    let acc = b.mov(start);
    b.for_range(0u32, SIM_ITERATIONS, 1, Unroll::None, |b, _| {
        let scaled = b.imul(acc, LCG_MUL);
        let next = b.iadd(scaled, LCG_ADD);
        b.mov_to(acc, next);
    });
    let byte = b.shl(gid, 2u32);
    b.st_global(byte, 0, acc);
    b.build()
}

/// A `sim` spec: a param no other request uses, so the memo always misses.
pub fn sim_spec(kernel: &Kernel, param: u32) -> WireLaunch {
    WireLaunch::new(
        kernel.clone(),
        DIMS,
        vec![Value::from_u32(param)],
        THREADS * 4,
    )
}

/// What the image kernel must leave behind, computed on the host.
fn image_expected(tenant: u32, spec: &WireLaunch) -> Vec<(u32, u32)> {
    spec.writes[..THREADS as usize]
        .iter()
        .map(|&(addr, v)| {
            (
                addr,
                v.wrapping_mul(LCG_MUL)
                    .wrapping_add(LCG_ADD.wrapping_add(tenant)),
            )
        })
        .zip(&spec.writes)
        .filter(|((_, new), (_, old))| new != old)
        .map(|(pair, _)| pair)
        .collect()
}

/// Digest of what the `sim` kernel must leave behind for `param`.
fn sim_expected_digest(param: u32) -> u64 {
    delta_digest((0..THREADS).filter_map(|gid| {
        let mut acc = gid.wrapping_add(param);
        for _ in 0..SIM_ITERATIONS {
            acc = acc.wrapping_mul(LCG_MUL).wrapping_add(LCG_ADD);
        }
        (acc != 0).then_some((gid * 4, acc))
    }))
}

fn delta_digest(delta: impl IntoIterator<Item = (u32, u32)>) -> u64 {
    digest_words(delta.into_iter().flat_map(|(a, w)| [a, w]))
}

/// The same spec run in-process, the way the daemon runs it:
/// `DeviceMemory::new` + writes + `launch_reported`, then the memory delta.
pub fn run_inproc(cfg: &GpuConfig, spec: &WireLaunch) -> (LaunchReport, Vec<(u32, u32)>) {
    let mem = DeviceMemory::new(spec.mem_bytes);
    for &(addr, word) in &spec.writes {
        mem.write(addr, Value(word));
    }
    let before = mem.snapshot_words();
    let report = launch_reported(cfg, &spec.kernel, spec.dims, &spec.params, &mem)
        .unwrap_or_else(|e| panic!("in-process twin of {} failed: {e}", spec.kernel.name));
    let delta = before
        .iter()
        .zip(mem.snapshot_words())
        .enumerate()
        .filter(|(_, (b, a))| *b != a)
        .map(|(i, (_, a))| ((i * 4) as u32, a))
        .collect();
    (report, delta)
}

/// A `sim` param no other request of this run uses: tenant in the top
/// bits, then set-up round, then a per-tenant counter.
fn sim_param(tenant: u32, round: u32, index: u32) -> u32 {
    (tenant << 28) | (round << 22) | index
}

/// One tenant's connection, specs, and the digests its responses must
/// match (stats, memory delta).
struct Tenant {
    id: u32,
    client: Client,
    probe: WireLaunch,
    bulk: WireLaunch,
    sim_kernel: Kernel,
    /// Per class: (stats digest, delta digest); `sim` deltas depend on
    /// the param, so only its stats digest is used.
    want: [(u64, u64); 3],
    connect_ms: f64,
}

struct Daemon {
    server: Server,
    tenants: Vec<Tenant>,
    /// Set-up checks that failed (first responses not bit-identical to
    /// the in-process twin, or not what the host computes).
    failures: Vec<String>,
}

/// Bind, connect, and one verified warm-up round trip per class and
/// tenant: each first response must be bit-identical — stats and memory
/// delta — to the in-process `launch_reported` of the same spec.
fn setup(ctx: &Ctx, round: u32) -> Daemon {
    // Every set-up starts from the same cache state.
    g80_sim::clear_memo_cache();
    let server = serve(ServeConfig {
        addr: Addr::Tcp("127.0.0.1:0".into()),
        ..ServeConfig::default()
    })
    .expect("bind the in-process daemon on loopback");
    // The accept loop polls every 20 ms. Let it reach its first poll, so
    // every set-up meets the same phase of that tick; racing it makes
    // `setup_s` bimodal (25 or 45 ms).
    std::thread::sleep(Duration::from_millis(2));
    let addr = server.local_addr().clone();
    let cfg = GpuConfig::geforce_8800_gtx();
    let mut failures = Vec::new();
    let tenants = (0..CLIENTS as u32)
        .map(|id| {
            let t0 = Instant::now();
            let mut client =
                Client::connect(&addr, &format!("tenant-{id}")).expect("connect to the daemon");
            let connect_ms = t0.elapsed().as_secs_f64() * 1e3;
            let data_seed = derive_seed(ctx.seed, STREAM_INPUTS, id as u64);
            let probe = image_spec(id, PROBE_WORDS, data_seed);
            let bulk = image_spec(id, BULK_WORDS, data_seed ^ 1);
            let sim_kernel = sim_kernel();
            let warm_sim = sim_spec(&sim_kernel, sim_param(id, round, 0));
            let mut want = [(0, 0); 3];
            for (class, spec) in [
                (Class::Probe, &probe),
                (Class::Bulk, &bulk),
                (Class::Sim, &warm_sim),
            ] {
                let served = client
                    .launch(spec)
                    .expect("transport")
                    .unwrap_or_else(|e| panic!("warm-up {class:?} refused: {e}"));
                let twin = run_inproc(&cfg, spec);
                let digests = (
                    stats_digest(&twin.0.stats),
                    delta_digest(twin.1.iter().copied()),
                );
                if stats_digest(&served.0.stats) != digests.0 || served.1 != twin.1 {
                    failures.push(format!(
                        "tenant {id} {class:?}: first response differs from the in-process twin"
                    ));
                }
                let host_ok = match class {
                    Class::Sim => digests.1 == sim_expected_digest(warm_sim.params[0].0),
                    _ => twin.1 == image_expected(id, spec),
                };
                if !host_ok {
                    failures.push(format!(
                        "tenant {id} {class:?}: memory delta is not what the host computes"
                    ));
                }
                want[class as usize] = digests;
            }
            Tenant {
                id,
                client,
                probe,
                bulk,
                sim_kernel,
                want,
                connect_ms,
            }
        })
        .collect();
    Daemon {
        server,
        tenants,
        failures,
    }
}

fn teardown(d: Daemon) {
    let Daemon {
        server, tenants, ..
    } = d;
    drop(tenants);
    server.trigger_shutdown();
    server.join().expect("daemon drain");
}

/// The class order of one 100-request block: exactly 87/10/3, shuffled.
fn schedule_block(seed: u64, tenant: u32, block: u64) -> [Class; BLOCK] {
    let mut order = [Class::Probe; BLOCK];
    order[..BLOCK_BULK].fill(Class::Bulk);
    order[BLOCK_BULK..BLOCK_BULK + BLOCK_SIM].fill(Class::Sim);
    let mut rng = Rng(derive_seed(
        seed,
        STREAM_MIX,
        ((tenant as u64) << 40) | block,
    ));
    for i in (1..BLOCK).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

/// One round trip as the client saw it.
struct OpRecord {
    class: Class,
    ms: f64,
    /// When the reply arrived, seconds since the phase began.
    end_s: f64,
    /// Warp instructions in the reply's `KernelStats` (0 when refused).
    warp_insts: u64,
    /// For ops after the count window of a traced run: was it traced?
    twin: Option<bool>,
}

#[derive(Default)]
struct ClientLog {
    /// Every round trip, in send order.
    ops: Vec<OpRecord>,
    failures: Vec<String>,
    failed: u64,
    /// (param, delta digest) of every `sim` response, checked on the
    /// host after the timed phase.
    sim_deltas: Vec<(u32, u64)>,
    /// Warp instructions the `sim` responses reported.
    sim_insts: u64,
    spans: Vec<Span>,
    // Counts over the count window.
    served_memo: u64,
    served_simulated: u64,
    rejected: u64,
    throttled: u64,
    window_warp_insts: u64,
    window_cycles: u64,
}

impl ClientLog {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }
}

/// One client's closed loop until the deadline. In a traced run the
/// first `COUNT_WINDOW_BLOCKS` blocks are the count window — both clients
/// meet at `window_gate` after it so the main thread can snapshot the
/// process-wide counters — and later blocks alternate traced/untraced.
fn client_loop(
    ctx: &Ctx,
    round: u32,
    t: &mut Tenant,
    epoch: Instant,
    deadline: Instant,
    window_gate: Option<&Barrier>,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut tracer = Tracer::new(ctx.trace, epoch, t.id << 28);
    let mut sim_index = 1u32;
    let mut block = 0u64;
    let mut op = 0u32;
    'run: loop {
        let in_window = ctx.trace && (block as usize) < COUNT_WINDOW_BLOCKS;
        let traced = ctx.trace && (in_window || block.is_multiple_of(2));
        for class in schedule_block(ctx.seed, t.id, block) {
            if !in_window && Instant::now() >= deadline {
                break 'run;
            }
            let sim;
            let spec = match class {
                Class::Probe => &t.probe,
                Class::Bulk => &t.bulk,
                Class::Sim => {
                    sim = sim_spec(&t.sim_kernel, sim_param(t.id, round, sim_index));
                    sim_index += 1;
                    &sim
                }
            };
            tracer.begin_op(op);
            op += 1;
            let client = &mut t.client;
            let t0 = Instant::now();
            let reply = if traced {
                tracer.span(HARNESS, "round trip", |tr| {
                    tr.span("serve", "Client::launch", |_| client.launch(spec))
                })
            } else {
                client.launch(spec)
            };
            let mut record = OpRecord {
                class,
                ms: t0.elapsed().as_secs_f64() * 1e3,
                end_s: epoch.elapsed().as_secs_f64(),
                warp_insts: 0,
                twin: (ctx.trace && !in_window).then_some(traced),
            };
            match reply {
                Ok(Ok((report, delta))) => {
                    record.warp_insts = report.stats.warp_instructions;
                    let want = t.want[class as usize];
                    let got_delta = delta_digest(delta.iter().copied());
                    if stats_digest(&report.stats) != want.0 {
                        log.fail(format!("{class:?}: stats differ from the first response"));
                    } else if class == Class::Sim {
                        log.sim_deltas.push((spec.params[0].0, got_delta));
                        log.sim_insts += report.stats.warp_instructions;
                    } else if got_delta != want.1 {
                        log.fail(format!("{class:?}: memory delta differs from the first"));
                    }
                    if in_window {
                        if report.served.from_cache() {
                            log.served_memo += 1;
                        } else {
                            log.served_simulated += 1;
                        }
                        log.window_warp_insts += report.stats.warp_instructions;
                        log.window_cycles += report.stats.cycles;
                    }
                }
                Ok(Err(e)) => {
                    match e {
                        WireError::Rejected(_) => log.rejected += 1,
                        WireError::Throttled(_) => log.throttled += 1,
                        _ => {}
                    }
                    log.fail(format!("{class:?} refused: {e}"));
                }
                Err(e) => log.fail(format!("{class:?} transport: {e}")),
            }
            log.ops.push(record);
        }
        block += 1;
        if ctx.trace && block as usize == COUNT_WINDOW_BLOCKS {
            let gate = window_gate.expect("traced runs carry the window gate");
            gate.wait(); // both clients are through the window
            gate.wait(); // the main thread has its snapshot
        }
    }
    let wrong: Vec<u32> = log
        .sim_deltas
        .iter()
        .filter(|&&(param, got)| got != sim_expected_digest(param))
        .map(|&(param, _)| param)
        .collect();
    for param in wrong {
        log.fail(format!("sim param {param:#x}: wrong memory delta"));
    }
    log.spans = tracer.into_spans();
    log
}

/// Median in-process time of a class's spec, µs — what the same request
/// costs without the daemon around it.
fn inproc_us(cfg: &GpuConfig, reps: u32, mut spec: impl FnMut(u32) -> WireLaunch) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|i| {
            let s = spec(i);
            let t0 = Instant::now();
            std::hint::black_box(run_inproc(cfg, &s));
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&mut samples)
}

/// `probes` are the one-mechanism probes of a traced run: the codec times
/// measured from outside go into `serve.wire_overhead_us`.
pub fn run(ctx: &Ctx, probes: &Metrics) -> Outcome {
    let mut m = Metrics::new();
    let mut round = 0;
    let (mut daemon, mut setup_s) = time_setups(
        ctx,
        SETUPS,
        || {
            round += 1;
            setup(ctx, round)
        },
        teardown,
    );
    let mut phase = Phase::start();
    for f in std::mem::take(&mut daemon.failures) {
        phase.fail(f);
    }

    if ctx.trace {
        // The in-process twins, timed: what each class costs with no
        // daemon around it. `sim` twins use params of their own so they
        // simulate, like the served ones.
        let cfg = GpuConfig::geforce_8800_gtx();
        let t0 = &daemon.tenants[0];
        let (probe, bulk, kernel) = (t0.probe.clone(), t0.bulk.clone(), t0.sim_kernel.clone());
        put(
            &mut m,
            "serve.inproc_us.probe",
            inproc_us(&cfg, 200, |_| probe.clone()),
        );
        put(
            &mut m,
            "serve.inproc_us.bulk",
            inproc_us(&cfg, 50, |_| bulk.clone()),
        );
        put(
            &mut m,
            "serve.inproc_us.sim",
            inproc_us(&cfg, 20, |i| sim_spec(&kernel, sim_param(15, round, i))),
        );
        let mut connect: Vec<f64> = daemon.tenants.iter().map(|t| t.connect_ms).collect();
        put(&mut m, "serve.connect_ms", median(&mut connect));
    }

    let input_digest = delta_digest(daemon.tenants[0].probe.writes.iter().copied())
        ^ digest_words(schedule_block(ctx.seed, 0, 0).map(|c| c as u32));
    let gate = Barrier::new(CLIENTS + 1);
    let globals_before = Globals::now();
    let window = Window::open(ctx.seconds);
    let epoch = Instant::now();
    let deadline = window.deadline();
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = daemon
            .tenants
            .iter_mut()
            .map(|t| {
                let gate = ctx.trace.then_some(&gate);
                s.spawn(move || client_loop(ctx, round, t, epoch, deadline, gate))
            })
            .collect();
        if ctx.trace {
            gate.wait();
            Globals::now().emit_since(&globals_before, &mut m);
            gate.wait();
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    teardown(daemon);

    let mut spans = Vec::new();
    let mut by_class: [Vec<f64>; 3] = Default::default();
    let mut twins = Twins::default();
    let mut window_counts = [0u64; 6];
    let mut sim_insts = 0u64;
    for log in logs {
        for op in &log.ops {
            phase.op_ms.push(op.ms);
            by_class[op.class as usize].push(op.ms);
            if let Some(traced) = op.twin {
                twins.push(traced, op.ms);
            }
        }
        // A round is one whole schedule block of one client — every block
        // holds the same 87/10/3 mix — taken at the rate of all clients
        // together; the block the deadline cuts short is dropped.
        let mut block_start_s = 0.0;
        for block in log.ops.chunks_exact(BLOCK) {
            let block_end_s = block[BLOCK - 1].end_s;
            phase.end_round(Round {
                ops: (CLIENTS * BLOCK) as u64,
                seconds: block_end_s - block_start_s,
                warp_insts: CLIENTS as u64 * block.iter().map(|op| op.warp_insts).sum::<u64>(),
            });
            block_start_s = block_end_s;
        }
        sim_insts += log.sim_insts;
        phase.failed += log.failed;
        phase.failures.extend(log.failures);
        spans.extend(log.spans);
        for (total, v) in window_counts.iter_mut().zip([
            log.served_memo,
            log.served_simulated,
            log.rejected,
            log.throttled,
            log.window_warp_insts,
            log.window_cycles,
        ]) {
            *total += v;
        }
    }
    phase.failures.truncate(16);

    let metrics = if ctx.trace {
        let mut all = phase.op_ms.clone();
        all.sort_unstable_by(f64::total_cmp);
        put(&mut m, "serve.op_p99_ms", percentile(&all, 0.99));
        let mut sim_wall_ns = 0.0;
        for ((_, name), samples) in CLASSES.iter().zip(&mut by_class) {
            samples.sort_unstable_by(f64::total_cmp);
            let p50 = percentile(samples, 0.50);
            put(&mut m, &format!("serve.{name}_p50_ms"), p50);
            put(
                &mut m,
                &format!("serve.{name}_p99_ms"),
                percentile(samples, 0.99),
            );
            // Class p50 minus the in-process twin and the codec measured
            // from outside: sockets, framing, CRC and thread hand-off.
            let request = if *name == "bulk" { "bulk" } else { "probe" };
            let codec_us = probes[&format!("serve.req_encode_us.{request}")]
                + probes[&format!("serve.req_decode_us.{request}")]
                + probes["serve.resp_encode_us"]
                + probes["serve.resp_decode_us"];
            let overhead = p50 * 1e3 - m[&format!("serve.inproc_us.{name}")] - codec_us;
            put(&mut m, &format!("serve.wire_overhead_us.{name}"), overhead);
            if *name == "sim" {
                sim_wall_ns = samples.iter().sum::<f64>() * 1e6;
            }
        }
        let [memo, simulated, rejected, throttled, insts, cycles] = window_counts;
        put(&mut m, "serve.served_memo", memo as f64);
        put(&mut m, "serve.served_simulated", simulated as f64);
        put(&mut m, "serve.rejected", rejected as f64);
        put(&mut m, "serve.throttled", throttled as f64);
        put(&mut m, "sim.warp_insts", insts as f64);
        put(&mut m, "sim.cycles", cycles as f64);
        // Host ns per simulated warp instruction on the class that
        // simulates: round-trip time of `sim` requests over their work.
        put(
            &mut m,
            "sim.ns_per_warp_inst",
            sim_wall_ns / sim_insts as f64,
        );
        put(
            &mut m,
            "trace.window_ops",
            (CLIENTS * COUNT_WINDOW_BLOCKS * BLOCK) as f64,
        );
        finish_trace(ctx, "serve_mix", &spans, &twins, &mut m);
        m
    } else {
        let err_pct = fidelity_walk(derive_seed(ctx.seed, super::STREAM_FIDELITY, 0));
        end_to_end(&phase, TAIL, &mut setup_s, err_pct)
    };
    phase.into_outcome(metrics, CLIENTS, input_digest)
}
