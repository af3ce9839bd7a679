//! `matmul_walk`: generations of the Section 4 walk at n=256 (`Naive`,
//! `Tiled{16}`, `Tiled{16,unrolled}`, `Prefetch{16}`), fresh inputs per
//! generation so every launch misses the memo. One op is one generation
//! of the walk (four `MatMul::run` calls): the four variants differ 2.5x
//! in cost, so per-launch ops would put the median on a class boundary.

use super::{
    derive_seed, digests, finish_trace, matmul_device, matmul_shape, time_setups, verify_matmul,
    Ctx, MatmulLayers, RunResult, Twins, Window,
};
use super::{STREAM_INPUTS, STREAM_WARMUP};
use crate::layers::{paper_err_pct, put, stats_digest, Globals, Metrics, SimCounts, WALK};
use crate::stats::{digest_f32, end_to_end, Outcome, Phase, Round};
use crate::trace::{median_span, Tracer, HARNESS};
use g80_apps::matmul::{MatMul, Variant};
use std::time::{Duration, Instant};

const N: u32 = 256;
const SETUPS: usize = 5;
/// ≈45 generations fit a 20 s run: p75 keeps ten samples beyond it.
const TAIL: f64 = 0.75;
/// Traced generations whose counts are reported (exact for one seed).
const COUNT_WINDOW_GENERATIONS: u32 = 1;

const LAUNCH_SPANS: [&str; 4] = [
    "Device::launch naive",
    "Device::launch tiled",
    "Device::launch unrolled",
    "Device::launch prefetch",
];

/// Inputs, reference output, and the time the apps layer took to make
/// them (generate, cpu_reference), ms.
struct Generation {
    a: Vec<f32>,
    b: Vec<f32>,
    want: Vec<f32>,
    generate_ms: f64,
    reference_ms: f64,
}

fn generation(mm: &MatMul, seed: u64) -> Generation {
    let t0 = Instant::now();
    let (a, b) = mm.generate(seed);
    let generate_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    let want = mm.cpu_reference(&a, &b);
    let reference_ms = t1.elapsed().as_secs_f64() * 1e3;
    Generation {
        a,
        b,
        want,
        generate_ms,
        reference_ms,
    }
}

/// `MatMul::run`, decomposed into its public steps so each gets a span.
fn run_decomposed(
    t: &mut Tracer,
    mm: &MatMul,
    variant: Variant,
    launch_span: &'static str,
    a: &[f32],
    b: &[f32],
) -> RunResult {
    let (dev, params, dc) = matmul_device(t, mm.n, a, b);
    let kernel = t.span("isa", "MatMul::kernel", |_| mm.kernel(variant));
    let (grid, block) = matmul_shape(mm.n, variant);
    let stats = t
        .span("sim", launch_span, |_| {
            dev.launch(&kernel, grid, block, &params)
        })
        .unwrap_or_else(|e| panic!("matmul launch failed: {e}"));
    let c = t.span("cuda", "copy_from_device", |_| dev.copy_from_device(&dc));
    (c, stats, dev.timeline())
}

/// Pool spin-up, page-in and one verified warm-up generation.
fn setup(ctx: &Ctx) -> bool {
    // Every set-up pays for its warm-up launches: none may hit the memo.
    g80_sim::clear_memo_cache();
    let mm = MatMul { n: N };
    let g = generation(&mm, derive_seed(ctx.seed, STREAM_WARMUP, 0));
    let results: Vec<RunResult> = WALK.iter().map(|&v| mm.run(v, &g.a, &g.b)).collect();
    verify_matmul(&WALK, &results, &g.want).is_ok()
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mm = MatMul { n: N };
    let (warm_ok, mut setup_s) = time_setups(ctx, SETUPS, || setup(ctx), |_| {});

    let mut phase = Phase::start();
    if !warm_ok {
        phase.fail("warm-up generation failed verification".into());
    }
    let mut tracer = Tracer::new(ctx.trace, Instant::now(), 0);
    // After the count window, traced runs alternate traced (decomposed)
    // and untraced (composite) generations, so the overhead compares
    // neighbours in time.
    let mut twins = Twins::default();
    let mut counts = SimCounts::default();
    let mut window_metrics = Metrics::new();
    let mut layers = MatmulLayers::default();
    let mut traced_insts = 0u64;
    let mut first: Option<(Generation, Vec<(u64, u64)>)> = None;
    let mut walk_gflops = Vec::new();

    let globals_before = Globals::now();
    let window = Window::open(ctx.seconds);
    let mut last_op = Duration::ZERO;
    let mut gen = 0u32;
    while gen == 0 || window.has_room_for(last_op) {
        let g = generation(&mm, derive_seed(ctx.seed, STREAM_INPUTS, gen as u64));
        layers.generate_ms.push(g.generate_ms);
        layers.reference_ms.push(g.reference_ms);
        let in_window = ctx.trace && gen < COUNT_WINDOW_GENERATIONS;
        let traced_gen = ctx.trace && (in_window || gen.is_multiple_of(2));
        tracer.begin_op(gen);
        let t0 = Instant::now();
        let results: Vec<RunResult> = if traced_gen {
            tracer.span(HARNESS, "walk generation", |t| {
                WALK.iter()
                    .zip(LAUNCH_SPANS)
                    .map(|(&v, span)| run_decomposed(t, &mm, v, span, &g.a, &g.b))
                    .collect()
            })
        } else {
            WALK.iter().map(|&v| mm.run(v, &g.a, &g.b)).collect()
        };
        last_op = t0.elapsed();
        let ms = last_op.as_secs_f64() * 1e3;
        phase.op_ms.push(ms);
        if ctx.trace && !in_window {
            twins.push(traced_gen, ms);
        }
        let insts = results.iter().map(|r| r.1.warp_instructions).sum::<u64>();
        phase.end_round(Round {
            ops: 1,
            seconds: last_op.as_secs_f64(),
            warp_insts: insts,
        });
        if traced_gen {
            traced_insts += insts;
        }

        let t1 = Instant::now();
        let max_err = match verify_matmul(&WALK, &results, &g.want) {
            Ok(err) => err,
            Err(what) => {
                phase.fail(format!("generation {gen}: {what}"));
                f32::NAN
            }
        };
        layers.validate_ms.push(t1.elapsed().as_secs_f64() * 1e3);

        if in_window {
            for (_, stats, timeline) in &results {
                counts.add(stats);
                layers.transfer_s += timeline.transfer_s();
            }
            layers.max_rel_error = layers.max_rel_error.max(max_err);
            if gen + 1 == COUNT_WINDOW_GENERATIONS {
                Globals::now().emit_since(&globals_before, &mut window_metrics);
            }
        }
        if first.is_none() {
            walk_gflops = results.iter().map(|r| r.1.gflops()).collect();
            let digests = digests(&results);
            first = Some((g, digests));
        }
        gen += 1;
    }

    // Identical inputs must come back bit-identical (stats and output),
    // whether the memo still holds generation 0 or it simulates again.
    let (g0, digests0) = first.expect("at least one generation ran");
    for (&v, want) in WALK.iter().zip(&digests0) {
        let (c, stats, _) = mm.run(v, &g0.a, &g0.b);
        if (digest_f32(&c), stats_digest(&stats)) != *want {
            phase.fail(format!("{}: repeat of generation 0 differs", v.label()));
        }
    }

    let err_pct = paper_err_pct(&walk_gflops);
    let metrics = if ctx.trace {
        let mut m = window_metrics;
        counts.emit(&mut m);
        let spans = tracer.into_spans();
        let kernels: Vec<_> = WALK.iter().map(|&v| mm.kernel(v)).collect();
        layers.emit(&spans, kernels.iter(), &mut m);
        for (name, span) in ["naive", "tiled", "unrolled", "prefetch"]
            .iter()
            .zip(LAUNCH_SPANS)
        {
            put(
                &mut m,
                &format!("sim.launch_ms.{name}"),
                median_span(&spans, span, 1e-6),
            );
        }
        let launch_ns: u64 = spans
            .iter()
            .filter(|s| s.layer == "sim")
            .map(|s| s.dur_ns())
            .sum();
        put(
            &mut m,
            "sim.ns_per_warp_inst",
            launch_ns as f64 / traced_insts as f64,
        );
        put(&mut m, "trace.window_ops", COUNT_WINDOW_GENERATIONS as f64);
        finish_trace(ctx, "matmul_walk", &spans, &twins, &mut m);
        m
    } else {
        end_to_end(&phase, TAIL, &mut setup_s, err_pct)
    };
    phase.into_outcome(metrics, 1, digest_f32(&g0.a) ^ digest_f32(&g0.b))
}
