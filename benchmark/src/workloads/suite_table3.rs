//! `suite_table3`: passes of `g80_bench::suite::run_suite(Scale::Full)` —
//! Table 3's twelve applications, what `repro table3` users wait for. The
//! kernel diversity `matmul_walk` lacks (divergence in TPACF/PNS, SFU in
//! MRI-Q/FHD, constant cache in CP, texture in SAD, bandwidth-bound
//! SAXPY/FDTD/FEM/LBM), with `isa` kernel builds, `cuda` transfers, `apps`
//! CPU references and nested pool tasks all inside the op. The memo cache
//! is cleared (untimed) before each pass; one pass is one op. The apps'
//! `report()` fixes its own input seeds, so `--seed` does not change this
//! workload's inputs.

use super::{derive_seed, finish_trace, time_setups, Ctx, Twins, Window, STREAM_FIDELITY};
use crate::layers::{fidelity_walk, put, stats_digest, Globals, Metrics, SimCounts};
use crate::spec::APP_SLUGS;
use crate::stats::{end_to_end, median, Outcome, Phase, Round};
use crate::trace::{Tracer, HARNESS};
use g80_apps::common::AppReport;
use g80_apps::{cp, fdtd, fem, lbm, mrifhd, mriq, pns, rc5, rpes, sad, saxpy, tpacf};
use g80_bench::suite::{run_suite, Scale};
use g80_sim::clear_memo_cache;
use std::time::{Duration, Instant};

const SETUPS: usize = 5;
/// Four or five passes fit a 20 s run: no percentile above the median has
/// samples to stand on, so the tail metric repeats it.
const TAIL: f64 = 0.50;

/// `max_rel_error` each app's own tests accept, in `run_suite` order
/// (integer apps report 0 or 1).
const TOLERANCE: [f32; 12] = [
    0.0, 1e-4, 0.0, 1e-5, 1e-2, 0.0, 1e-6, 0.0, 1e-5, 1e-3, 1e-3, 2e-4,
];

/// The suite's full-scale applications, one `report()` each, in
/// `run_suite` order — its table repeated so the traced run can time each
/// pipeline serially. `check_pass` compares their stats with `run_suite`'s,
/// so a drift between the two tables fails the run.
fn serial_reports(t: &mut Tracer) -> Vec<AppReport> {
    t.span(HARNESS, "serial pass", |t| {
        vec![
            t.span("apps", "sad.report", |_| sad::SadApp::default().report()),
            t.span("apps", "lbm.report", |_| {
                lbm::Lbm { n: 128, steps: 8 }.report()
            }),
            t.span("apps", "rc5.report", |_| {
                rc5::Rc5 {
                    n_keys: 1 << 16,
                    ..Default::default()
                }
                .report()
            }),
            t.span("apps", "fem.report", |_| {
                fem::Fem {
                    n_nodes: 1 << 15,
                    sweeps: 8,
                }
                .report()
            }),
            t.span("apps", "rpes.report", |_| {
                rpes::Rpes { n: 1 << 15 }.report()
            }),
            t.span("apps", "pns.report", |_| {
                pns::Pns {
                    n_threads: 1 << 14,
                    steps: 256,
                    snap_every: 32,
                }
                .report()
            }),
            t.span("apps", "saxpy.report", |_| {
                saxpy::Saxpy {
                    n: 1 << 20,
                    alpha: 2.5,
                }
                .report()
            }),
            t.span("apps", "tpacf.report", |_| {
                tpacf::Tpacf { n: 2048 }.report()
            }),
            t.span("apps", "fdtd.report", |_| {
                fdtd::Fdtd { n: 256, steps: 8 }.report()
            }),
            t.span("apps", "mriq.report", |_| {
                mriq::MriQ {
                    n_voxels: 1 << 15,
                    n_k: 1024,
                }
                .report()
            }),
            t.span("apps", "mrifhd.report", |_| {
                mrifhd::MriFhd {
                    n_voxels: 1 << 15,
                    n_k: 1024,
                }
                .report()
            }),
            t.span("apps", "cp.report", |_| {
                cp::CoulombicPotential {
                    grid: 256,
                    n_atoms: 128,
                    spacing: 0.5,
                }
                .report()
            }),
        ]
    })
}

/// Every report within its app's tolerance and, against an earlier pass
/// of the same inputs, bit-identical stats. Returns the largest error.
fn check_pass(reports: &[AppReport], first: Option<&[u64]>) -> Result<f32, String> {
    if reports.len() != TOLERANCE.len() {
        return Err(format!("{} reports, expected 12", reports.len()));
    }
    let mut worst = 0.0f32;
    for (i, (r, tol)) in reports.iter().zip(TOLERANCE).enumerate() {
        if r.max_rel_error.is_nan() || r.max_rel_error > tol {
            return Err(format!(
                "{}: max_rel_error {} beyond {tol}",
                r.name, r.max_rel_error
            ));
        }
        worst = worst.max(r.max_rel_error);
        if first.is_some_and(|f| f[i] != stats_digest(&r.stats)) {
            return Err(format!("{}: stats differ from the first pass", r.name));
        }
    }
    Ok(worst)
}

/// Pool spin-up and lazy initialisation through one verified small-scale
/// pass. A full-scale warm-up would cost a quarter of the run, five times
/// over, for the same code paths.
fn setup() -> bool {
    clear_memo_cache();
    let reports = run_suite(Scale::Small);
    reports.len() == 12 && reports.iter().all(|r| r.max_rel_error < 1e-2)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let (warm_ok, mut setup_s) = time_setups(ctx, SETUPS, setup, |_| {});
    let mut phase = Phase::start();
    if !warm_ok {
        phase.fail("warm-up pass failed verification".into());
    }

    let mut tracer = Tracer::new(ctx.trace, Instant::now(), 0);
    let mut twins = Twins::default();
    let mut m = Metrics::new();
    let mut first_digests: Option<Vec<u64>> = None;
    let mut serial_ms = 0.0;

    let window = Window::open(ctx.seconds);
    let mut last_op = Duration::ZERO;
    let mut pass = 0u32;
    while pass == 0 || window.has_room_for(last_op) {
        // The first traced pass is the count window; later ones alternate.
        let traced = ctx.trace && pass.is_multiple_of(2);
        clear_memo_cache();
        let globals_before = Globals::now();
        tracer.begin_op(pass);
        let t0 = Instant::now();
        let reports = if traced {
            tracer.span(HARNESS, "pass", |t| {
                t.span("bench", "run_suite", |_| run_suite(Scale::Full))
            })
        } else {
            run_suite(Scale::Full)
        };
        last_op = t0.elapsed();
        let ms = last_op.as_secs_f64() * 1e3;
        phase.op_ms.push(ms);
        if ctx.trace && pass > 0 {
            twins.push(traced, ms);
        }
        let warp_insts: u64 = reports.iter().map(|r| r.stats.warp_instructions).sum();
        phase.end_round(Round {
            ops: 1,
            seconds: last_op.as_secs_f64(),
            warp_insts,
        });
        phase.sample_rss();
        match check_pass(&reports, first_digests.as_deref()) {
            Ok(worst) if pass == 0 => {
                first_digests = Some(reports.iter().map(|r| stats_digest(&r.stats)).collect());
                if ctx.trace {
                    Globals::now().emit_since(&globals_before, &mut m);
                    let mut counts = SimCounts::default();
                    reports.iter().for_each(|r| counts.add(&r.stats));
                    counts.emit(&mut m);
                    put(
                        &mut m,
                        "cuda.sim_transfer_s",
                        reports.iter().map(|r| r.timeline.transfer_s()).sum(),
                    );
                    put(&mut m, "apps.max_rel_error", worst as f64);
                    put(
                        &mut m,
                        "sim.ns_per_warp_inst",
                        last_op.as_nanos() as f64 / warp_insts as f64,
                    );
                    put(&mut m, "trace.window_ops", 1.0);
                }
            }
            Ok(_) => {}
            Err(what) => phase.fail(format!("pass {pass}: {what}")),
        }

        if ctx.trace && pass == 0 {
            // Each app's pipeline on its own, serially: which kernel
            // family a moved pass time belongs to, and what nesting the
            // apps on the pool buys.
            clear_memo_cache();
            tracer.begin_op(u32::MAX);
            let mark = tracer.mark();
            let serial = serial_reports(&mut tracer);
            serial_ms = tracer.layer_ns_since(mark, "apps") as f64 / 1e6;
            if let Err(what) = check_pass(&serial, first_digests.as_deref()) {
                phase.fail(format!("serial pass: {what}"));
            }
        }
        pass += 1;
    }

    let metrics = if ctx.trace {
        let spans = tracer.into_spans();
        for (slug, span) in APP_SLUGS
            .iter()
            .zip(spans.iter().filter(|s| s.layer == "apps"))
        {
            put(
                &mut m,
                &format!("apps.pipeline_ms.{slug}"),
                span.dur_ns() as f64 / 1e6,
            );
        }
        let suite_pass_ms = median(&mut phase.op_ms.clone());
        put(&mut m, "bench.suite_pass_ms", suite_pass_ms);
        put(
            &mut m,
            "bench.suite_parallel_gain",
            serial_ms / suite_pass_ms,
        );
        finish_trace(ctx, "suite_table3", &spans, &twins, &mut m);
        m
    } else {
        let err_pct = fidelity_walk(derive_seed(ctx.seed, STREAM_FIDELITY, 0));
        end_to_end(&phase, TAIL, &mut setup_s, err_pct)
    };
    // The apps' `report()` fixes its own inputs: nothing to digest.
    phase.into_outcome(metrics, 1, 0)
}
