//! The four workloads and what they share: the run context, seed
//! derivation, repeated set-up timing, and the trace epilogue.

pub mod matmul_walk;
pub mod serve_mix;
pub mod suite_table3;
pub mod tuner_fleet;

use crate::layers::{put, stats_digest, Metrics};
use crate::spec::LAYERS;
use crate::stats::{digest_f32, median, Outcome, Rng};
use crate::trace::{self, median_span, Span, Tracer};
use g80_apps::common::max_rel_error;
use g80_apps::matmul::Variant;
use g80_cuda::{Device, DeviceBuffer, Timeline};
use g80_isa::{Kernel, Value};
use g80_sim::KernelStats;
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: PathBuf,
}

/// Runs one workload. A traced run starts with the one-mechanism probes,
/// whose metrics join the workload's own.
pub fn run(name: &str, ctx: &Ctx) -> Option<Outcome> {
    let probes = if ctx.trace {
        crate::probes::run_all()
    } else {
        Metrics::new()
    };
    let mut outcome = match name {
        "matmul_walk" => matmul_walk::run(ctx),
        "suite_table3" => suite_table3::run(ctx),
        "tuner_fleet" => tuner_fleet::run(ctx),
        "serve_mix" => serve_mix::run(ctx, &probes),
        _ => return None,
    };
    outcome.metrics.extend(probes);
    Some(outcome)
}

/// An independent input seed per (stream, index) of one `--seed`.
pub fn derive_seed(seed: u64, stream: u64, index: u64) -> u64 {
    Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f) ^ index.rotate_left(32)).next_u64()
}

/// Streams of `derive_seed`.
pub const STREAM_WARMUP: u64 = 1;
pub const STREAM_INPUTS: u64 = 2;
pub const STREAM_MIX: u64 = 3;
pub const STREAM_FIDELITY: u64 = 4;

/// Sets up `times` times (once in a traced run, which reports no
/// `setup_s`), timing each, and keeps the last state; the earlier ones are
/// torn down untimed. `setup_s` is the median, so one slow bind or a cold
/// page cache does not decide it.
pub fn time_setups<S>(
    ctx: &Ctx,
    times: usize,
    mut setup: impl FnMut() -> S,
    mut teardown: impl FnMut(S),
) -> (S, Vec<f64>) {
    let times = if ctx.trace { 1 } else { times };
    let mut samples = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        if let Some(prev) = last.take() {
            teardown(prev);
        }
        let t0 = Instant::now();
        last = Some(setup());
        samples.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), samples)
}

/// The measuring window. A serial workload starts another op only while
/// at least half of its last op's time remains, so a 5 s op cannot push a
/// 20 s run to 25 s.
pub struct Window {
    start: Instant,
    length: Duration,
}

impl Window {
    pub fn open(seconds: f64) -> Self {
        Window {
            start: Instant::now(),
            length: Duration::from_secs_f64(seconds),
        }
    }

    pub fn deadline(&self) -> Instant {
        self.start + self.length
    }

    pub fn has_room_for(&self, last_op: Duration) -> bool {
        self.start.elapsed() + last_op / 2 < self.length
    }
}

/// The device set-up `MatMul::run` and `run_batch` do before they launch —
/// `Device::new`, three `alloc`s, two `copy_to_device`s — as one `cuda`
/// span. Returns the device, the launch params and the output buffer.
pub fn matmul_device(
    t: &mut Tracer,
    n: u32,
    a: &[f32],
    b: &[f32],
) -> (Device, [Value; 3], DeviceBuffer<f32>) {
    let elems = (n * n) as usize;
    t.span("cuda", "alloc_h2d", |_| {
        let mut dev = Device::new(3 * n * n * 4 + 4096);
        let da = dev.alloc::<f32>(elems);
        let db = dev.alloc::<f32>(elems);
        let dc = dev.alloc::<f32>(elems);
        dev.copy_to_device(&da, a);
        dev.copy_to_device(&db, b);
        (dev, [da.as_param(), db.as_param(), dc.as_param()], dc)
    })
}

/// Grid and block of a matmul variant at size `n`, as `MatMul::run` picks
/// them.
pub fn matmul_shape(n: u32, variant: Variant) -> ((u32, u32), (u32, u32, u32)) {
    let edge = variant.block_edge();
    let (bx, by) = variant.block_shape();
    ((n / edge, n / edge), (bx, by, 1))
}

/// What `MatMul::run` returns, and `run_batch` per variant.
pub type RunResult = (Vec<f32>, KernelStats, Timeline);

/// The matmul tests' own tolerance against `cpu_reference`.
const MATMUL_TOLERANCE: f32 = 1e-5;

/// Checks the results of `variants` on one input against the CPU
/// reference; returns the largest error seen, or what went wrong.
pub fn verify_matmul(
    variants: &[Variant],
    results: &[RunResult],
    want: &[f32],
) -> Result<f32, String> {
    let mut worst = 0.0f32;
    for (v, (c, stats, _)) in variants.iter().zip(results) {
        let err = max_rel_error(c, want);
        if err.is_nan() || err >= MATMUL_TOLERANCE {
            return Err(format!("{}: max_rel_error {err}", v.label()));
        }
        if stats.warp_instructions == 0 {
            return Err(format!("{}: empty KernelStats", v.label()));
        }
        worst = worst.max(err);
    }
    Ok(worst)
}

/// (output digest, stats digest) per result: equal lists mean bit-identical
/// outputs and `KernelStats`.
pub fn digests(results: &[RunResult]) -> Vec<(u64, u64)> {
    results
        .iter()
        .map(|(c, stats, _)| (digest_f32(c), stats_digest(stats)))
        .collect()
}

/// What the two matmul workloads gather around their ops for the `isa`,
/// `cuda` and `apps` layers: host time of input generation, the CPU
/// reference and validation (ms per call), and over the count window the
/// modelled transfer seconds and the largest error against the reference.
#[derive(Default)]
pub struct MatmulLayers {
    pub generate_ms: Vec<f64>,
    pub reference_ms: Vec<f64>,
    pub validate_ms: Vec<f64>,
    pub transfer_s: f64,
    pub max_rel_error: f32,
}

impl MatmulLayers {
    pub fn emit<'a>(
        &mut self,
        spans: &[Span],
        kernels: impl Iterator<Item = &'a Kernel> + Clone,
        m: &mut Metrics,
    ) {
        put(
            m,
            "isa.build_us",
            median_span(spans, "MatMul::kernel", 1e-3),
        );
        put(
            m,
            "isa.static_insts",
            kernels.clone().map(|k| k.static_mix().total()).sum::<u64>() as f64,
        );
        put(
            m,
            "isa.regs_sum",
            kernels.map(|k| k.regs_per_thread as u64).sum::<u64>() as f64,
        );
        put(
            m,
            "cuda.alloc_h2d_us",
            median_span(spans, "alloc_h2d", 1e-3),
        );
        put(
            m,
            "cuda.d2h_us",
            median_span(spans, "copy_from_device", 1e-3),
        );
        put(m, "cuda.sim_transfer_s", self.transfer_s);
        put(m, "apps.generate_ms", median(&mut self.generate_ms));
        put(m, "apps.cpu_reference_ms", median(&mut self.reference_ms));
        put(m, "apps.validate_ms", median(&mut self.validate_ms));
        put(m, "apps.max_rel_error", self.max_rel_error as f64);
    }
}

/// Op times of a traced run after its count window, where traced
/// (decomposed) and untraced (composite) ops alternate so the two sides
/// are neighbours in time.
#[derive(Default)]
pub struct Twins {
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
}

impl Twins {
    pub fn push(&mut self, traced: bool, ms: f64) {
        if traced {
            self.traced_ms.push(ms);
        } else {
            self.untraced_ms.push(ms);
        }
    }

    /// The untraced ops' rate against the traced ops', in percent; 0 when
    /// the run was too short to have both.
    fn overhead_pct(&self) -> f64 {
        if self.traced_ms.is_empty() || self.untraced_ms.is_empty() {
            return 0.0;
        }
        let per_s = |ms: &[f64]| ms.len() as f64 / ms.iter().sum::<f64>();
        100.0 * (per_s(&self.untraced_ms) / per_s(&self.traced_ms) - 1.0)
    }
}

/// Trace epilogue shared by the traced runs: per-layer self shares, the
/// covered share of op wall, the overhead against the untraced twin ops,
/// and the span file.
pub fn finish_trace(ctx: &Ctx, workload: &str, spans: &[Span], twins: &Twins, m: &mut Metrics) {
    let st = trace::self_times(spans);
    for layer in LAYERS {
        put(m, &format!("trace.self_share.{layer}"), st.share(layer));
    }
    put(m, "trace.self_cover_pct", st.cover_pct());
    put(m, "trace.overhead_pct", twins.overhead_pct());
    let path = ctx.out_dir.join(format!("trace-{workload}.json"));
    if let Err(e) = trace::write_trace(&path, workload, spans) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}
