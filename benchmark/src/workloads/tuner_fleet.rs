//! `tuner_fleet`: the tuner's traffic. Each generation draws fresh inputs
//! at n ∈ {16, 32, 48} and sweeps the `tuner_search` family of nine
//! variants with `run_batch` once cold and fifteen times again, then ranks
//! each sweep with the analytical model. Thousands of tiny launches, so
//! per-launch fixed costs (kernel build, device set-up, registry lookup,
//! memo key hashing, pool hand-off, delta capture) dominate and the engine
//! barely runs; the memo tier is used both ways — insert on the cold pass,
//! probe+replay on revisits, LRU eviction as generations roll past its
//! 128 entries. One op is one `run_batch` call plus its analysis.

use super::{
    derive_seed, digests, finish_trace, matmul_device, matmul_shape, time_setups, verify_matmul,
    Ctx, MatmulLayers, RunResult, Twins, Window,
};
use super::{STREAM_FIDELITY, STREAM_INPUTS, STREAM_WARMUP};
use crate::layers::{fidelity_walk, put, Globals, Metrics, SimCounts};
use crate::stats::{digest_f32, end_to_end, Outcome, Phase, Round};
use crate::trace::{median_span, Tracer, HARNESS};
use g80_apps::matmul::{MatMul, Variant};
use g80_core::{advise, estimate, kernel_occupancy, Sample, SweepResult};
use g80_cuda::BatchLaunch;
use g80_isa::Kernel;
use g80_sim::GpuConfig;
use std::hint::black_box;
use std::time::Instant;

const SIZES: [u32; 3] = [16, 32, 48];
const REVISITS: u32 = 15;
const SETUPS: usize = 9;
/// ≈15 000 sweeps fit a 20 s run. One op in 16 is cold, a third of those
/// at each size, so op times form four classes: revisits up to rank 93.75 %,
/// then the cold sweeps at n=16 (to 95.83 %), n=32 (to 97.92 %) and n=48.
/// p99 lies in the middle of the n=48 cold sweeps, where the engine does
/// the work; p95 would sit on the edge between two classes (1.8 ms below
/// it, 6.4 ms above) and jump with the op count.
const TAIL: f64 = 0.99;
/// Traced generations whose counts are reported: 6 × 27 = 162 distinct
/// launches, so the window rolls past the memo's 128 entries.
const COUNT_WINDOW_GENERATIONS: u32 = 6;

/// The `tuner_search` family: naive, tiled 4/8/16 rolled and unrolled,
/// prefetch, register tiling.
fn variants() -> Vec<Variant> {
    let mut v = vec![Variant::Naive];
    for tile in [4u32, 8, 16] {
        for unroll in [false, true] {
            v.push(Variant::Tiled { tile, unroll });
        }
    }
    v.push(Variant::Prefetch { tile: 16 });
    v.push(Variant::RegTiled { tile: 16 });
    v
}

/// What stays the same across generations: the variant family and, per
/// size, the built kernels the occupancy analysis reads.
struct Fleet {
    cfg: GpuConfig,
    variants: Vec<Variant>,
    kernels: Vec<Vec<Kernel>>,
    warm_ok: bool,
}

/// The tuner's ranking of one sweep: model estimate, advice and occupancy
/// per sample, then the winner. Returns the winner's GFLOPS.
fn analyze(fleet: &Fleet, size_idx: usize, evals: &[RunResult]) -> f64 {
    let samples = fleet
        .variants
        .iter()
        .zip(&fleet.kernels[size_idx])
        .zip(evals)
        .map(|((&config, kernel), (_, stats, _))| {
            black_box(estimate(&fleet.cfg, stats));
            black_box(advise(&fleet.cfg, stats));
            black_box(kernel_occupancy(
                &fleet.cfg,
                kernel,
                stats.threads_per_block,
            ));
            Sample {
                config,
                stats: stats.clone(),
            }
        })
        .collect();
    SweepResult::from_samples(samples).best_sample().score()
}

/// `MatMul::run_batch`, decomposed into its public steps.
fn run_batch_decomposed(
    t: &mut Tracer,
    mm: &MatMul,
    variants: &[Variant],
    a: &[f32],
    b: &[f32],
) -> Vec<RunResult> {
    let preps: Vec<_> = variants
        .iter()
        .map(|&v| {
            let (dev, params, dc) = matmul_device(t, mm.n, a, b);
            let kernel = t.span("isa", "MatMul::kernel", |_| mm.kernel(v));
            (dev, kernel, params, dc)
        })
        .collect();
    let entries: Vec<BatchLaunch> = variants
        .iter()
        .zip(&preps)
        .map(|(&v, (dev, kernel, params, _))| {
            let (grid, block) = matmul_shape(mm.n, v);
            BatchLaunch {
                device: dev,
                kernel,
                grid,
                block,
                params,
            }
        })
        .collect();
    let results = t.span("sim", "launch_batch", |_| g80_cuda::launch_batch(&entries));
    preps
        .iter()
        .zip(results)
        .map(|((dev, _, _, dc), r)| {
            let stats = r.unwrap_or_else(|e| panic!("matmul launch failed: {e}"));
            let c = t.span("cuda", "copy_from_device", |_| dev.copy_from_device(dc));
            (c, stats, dev.timeline())
        })
        .collect()
}

/// Kernel builds for the analysis plus one verified warm-up generation
/// (a cold sweep and a revisit at every size).
fn setup(ctx: &Ctx) -> Fleet {
    // Every set-up pays for its cold sweeps: none may hit the memo.
    g80_sim::clear_memo_cache();
    let variants = variants();
    let kernels = SIZES
        .iter()
        .map(|&n| variants.iter().map(|&v| MatMul { n }.kernel(v)).collect())
        .collect();
    let mut fleet = Fleet {
        cfg: GpuConfig::geforce_8800_gtx(),
        variants,
        kernels,
        warm_ok: true,
    };
    for (i, &n) in SIZES.iter().enumerate() {
        let mm = MatMul { n };
        let (a, b) = mm.generate(derive_seed(ctx.seed, STREAM_WARMUP, n as u64));
        let want = mm.cpu_reference(&a, &b);
        let cold = mm.run_batch(&fleet.variants, &a, &b);
        black_box(analyze(&fleet, i, &cold));
        let again = mm.run_batch(&fleet.variants, &a, &b);
        fleet.warm_ok &= verify_matmul(&fleet.variants, &cold, &want).is_ok()
            && digests(&cold) == digests(&again);
    }
    fleet
}

pub fn run(ctx: &Ctx) -> Outcome {
    let (fleet, mut setup_s) = time_setups(ctx, SETUPS, || setup(ctx), |_| {});
    let mut phase = Phase::start();
    if !fleet.warm_ok {
        phase.fail("warm-up generation failed verification".into());
    }

    let mut tracer = Tracer::new(ctx.trace, Instant::now(), 0);
    let mut twins = Twins::default();
    let mut counts = SimCounts::default();
    let mut window_metrics = Metrics::new();
    let mut layers = MatmulLayers::default();
    let (mut winners, mut window_ops) = (0.0f64, 0u32);
    let (mut cold_launch_ns, mut cold_insts) = (0u64, 0u64);

    let globals_before = Globals::now();
    let window = Window::open(ctx.seconds);
    let mut gen = 0u32;
    let mut op = 0u32;
    let mut input_digest = 0;
    // Whole generations only (one takes ≈60 ms), so every round of the
    // rates holds the same 48 sweeps.
    while gen == 0
        || ctx.trace && gen < COUNT_WINDOW_GENERATIONS
        || Instant::now() < window.deadline()
    {
        let in_window = ctx.trace && gen < COUNT_WINDOW_GENERATIONS;
        let traced_gen = ctx.trace && (in_window || gen.is_multiple_of(2));
        let mut round = Round {
            ops: 0,
            seconds: 0.0,
            warp_insts: 0,
        };
        for (size_idx, &n) in SIZES.iter().enumerate() {
            let mm = MatMul { n };
            let t0 = Instant::now();
            let (a, b) = mm.generate(derive_seed(
                ctx.seed,
                STREAM_INPUTS,
                ((gen as u64) << 8) | n as u64,
            ));
            layers.generate_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let t1 = Instant::now();
            let want = mm.cpu_reference(&a, &b);
            layers.reference_ms.push(t1.elapsed().as_secs_f64() * 1e3);
            if gen == 0 && size_idx == 0 {
                input_digest = digest_f32(&a) ^ digest_f32(&b);
            }
            let mut cold_digests = Vec::new();
            for visit in 0..=REVISITS {
                tracer.begin_op(op);
                op += 1;
                let mark = tracer.mark();
                let t0 = Instant::now();
                let (evals, best) = if traced_gen {
                    tracer.span(HARNESS, "sweep", |t| {
                        let evals = run_batch_decomposed(t, &mm, &fleet.variants, &a, &b);
                        let best = t.span("core", "analyze", |_| analyze(&fleet, size_idx, &evals));
                        (evals, best)
                    })
                } else {
                    let evals = mm.run_batch(&fleet.variants, &a, &b);
                    let best = analyze(&fleet, size_idx, &evals);
                    (evals, best)
                };
                let elapsed = t0.elapsed();
                let ms = elapsed.as_secs_f64() * 1e3;
                phase.op_ms.push(ms);
                round.ops += 1;
                round.seconds += elapsed.as_secs_f64();
                if ctx.trace && !in_window {
                    twins.push(traced_gen, ms);
                }
                let insts = evals.iter().map(|r| r.1.warp_instructions).sum::<u64>();
                round.warp_insts += insts;
                if traced_gen && visit == 0 {
                    cold_launch_ns += tracer.layer_ns_since(mark, "sim");
                    cold_insts += insts;
                }

                let t2 = Instant::now();
                let mut max_err = 0.0f32;
                if visit == 0 {
                    match verify_matmul(&fleet.variants, &evals, &want) {
                        Ok(err) => max_err = err,
                        Err(what) => phase.fail(format!("generation {gen} n={n} cold: {what}")),
                    }
                    cold_digests = digests(&evals);
                } else if digests(&evals) != cold_digests {
                    phase.fail(format!(
                        "generation {gen} n={n} revisit {visit}: not bit-identical to the cold pass"
                    ));
                }
                layers.validate_ms.push(t2.elapsed().as_secs_f64() * 1e3);

                if in_window {
                    for (_, stats, timeline) in &evals {
                        counts.add(stats);
                        layers.transfer_s += timeline.transfer_s();
                    }
                    layers.max_rel_error = layers.max_rel_error.max(max_err);
                    winners += best;
                    window_ops += 1;
                }
            }
        }
        phase.end_round(round);
        gen += 1;
        if ctx.trace && gen == COUNT_WINDOW_GENERATIONS {
            Globals::now().emit_since(&globals_before, &mut window_metrics);
        }
    }

    let metrics = if ctx.trace {
        let mut m = window_metrics;
        counts.emit(&mut m);
        let spans = tracer.into_spans();
        layers.emit(&spans, fleet.kernels.iter().flatten(), &mut m);
        put(
            &mut m,
            "core.analyze_us",
            median_span(&spans, "analyze", 1e-3),
        );
        put(
            &mut m,
            "core.best_gflops",
            winners / window_ops.max(1) as f64,
        );
        put(
            &mut m,
            "sim.ns_per_warp_inst",
            cold_launch_ns as f64 / cold_insts.max(1) as f64,
        );
        put(&mut m, "trace.window_ops", window_ops as f64);
        finish_trace(ctx, "tuner_fleet", &spans, &twins, &mut m);
        m
    } else {
        let err_pct = fidelity_walk(derive_seed(ctx.seed, STREAM_FIDELITY, 0));
        end_to_end(&phase, TAIL, &mut setup_s, err_pct)
    };
    phase.into_outcome(metrics, 1, input_digest)
}
