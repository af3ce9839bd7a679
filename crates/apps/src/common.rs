//! Shared helpers for the application suite: workload generation, result
//! comparison, the global-thread-index idiom, and the per-application
//! report used by the Table 2 / Table 3 harnesses.

use g80_cuda::Timeline;
use g80_isa::builder::KernelBuilder;
use g80_isa::Reg;
use g80_sim::KernelStats;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic RNG for workload generation.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// A vector of uniform floats in [lo, hi).
pub fn random_f32(seed: u64, n: usize, lo: f32, hi: f32) -> Vec<f32> {
    let mut r = rng(seed);
    (0..n).map(|_| r.gen_range(lo..hi)).collect()
}

/// Maximum relative error between two float slices (absolute error where the
/// reference is tiny).
pub fn max_rel_error(got: &[f32], want: &[f32]) -> f32 {
    assert_eq!(got.len(), want.len(), "length mismatch");
    got.iter()
        .zip(want)
        .map(|(&g, &w)| {
            let d = (g - w).abs();
            if w.abs() > 1e-3 {
                d / w.abs()
            } else {
                d
            }
        })
        .fold(0.0f32, f32::max)
}

/// RMS error normalized by the RMS of the reference — the right metric for
/// outputs that are sums of many signed terms (MRI, TPACF), where individual
/// elements can cancel to near zero and per-element relative error explodes.
pub fn rms_rel_error(got: &[f32], want: &[f32]) -> f32 {
    assert_eq!(got.len(), want.len(), "length mismatch");
    let (mut num, mut den) = (0.0f64, 0.0f64);
    for (&g, &w) in got.iter().zip(want) {
        num += ((g - w) as f64).powi(2);
        den += (w as f64).powi(2);
    }
    if den == 0.0 {
        num.sqrt() as f32
    } else {
        (num / den).sqrt() as f32
    }
}

/// Emits the `blockIdx.x * blockDim.x + threadIdx.x` idiom.
pub fn global_tid_x(b: &mut KernelBuilder) -> Reg {
    let tid = b.tid_x();
    let ntid = b.ntid_x();
    let cta = b.ctaid_x();
    b.imad(cta, ntid, tid)
}

/// Per-application record backing the Table 2 / Table 3 rows.
#[derive(Clone, Debug)]
pub struct AppReport {
    /// Application name as in the paper.
    pub name: &'static str,
    /// One-line description (Table 2).
    pub description: &'static str,
    /// Counters from the optimized kernel's run(s). For multi-launch apps
    /// (time-stepped simulations) this is the aggregate of all launches.
    pub stats: KernelStats,
    /// Device timeline: kernel vs transfer time (Table 3).
    pub timeline: Timeline,
    /// Modeled single-thread CPU time for the kernel portion, tuned
    /// (SSE2 + fast math) — the denominator of the paper's kernel speedup.
    pub cpu_kernel_s: f64,
    /// Fraction of single-thread CPU execution time spent in the kernel
    /// (Table 2 column; bounds app speedup by Amdahl's law).
    pub kernel_cpu_fraction: f64,
    /// Max relative error of GPU output vs the CPU reference.
    pub max_rel_error: f32,
}

impl AppReport {
    /// Kernel-only speedup: CPU kernel time / GPU kernel time.
    pub fn kernel_speedup(&self) -> f64 {
        if self.timeline.kernel_s == 0.0 {
            0.0
        } else {
            self.cpu_kernel_s / self.timeline.kernel_s
        }
    }

    /// Whole-application speedup with Amdahl's law: the non-kernel fraction
    /// stays on the CPU, and the GPU side adds transfer time.
    pub fn app_speedup(&self) -> f64 {
        let cpu_total = self.cpu_kernel_s / self.kernel_cpu_fraction;
        let cpu_rest = cpu_total - self.cpu_kernel_s;
        let gpu_total = cpu_rest + self.timeline.total_s();
        if gpu_total == 0.0 {
            0.0
        } else {
            cpu_total / gpu_total
        }
    }

    /// Fraction of device time spent in kernels rather than transfers
    /// (Table 3's "GPU execution time" column).
    pub fn gpu_exec_fraction(&self) -> f64 {
        self.timeline.gpu_fraction()
    }

    /// Models an application that invokes the kernel `iters` times on
    /// device-resident data per host↔device transfer (iterative solvers,
    /// streaming pipelines): kernel time on both sides scales, transfers
    /// don't. Used where the paper's application context amortizes copies.
    pub fn with_amortized_iterations(mut self, iters: u32) -> Self {
        self.timeline.kernel_s *= iters as f64;
        self.timeline.kernel_cycles *= iters as u64;
        self.timeline.launches *= iters as u64;
        self.cpu_kernel_s *= iters as f64;
        self
    }
}

/// Largest `|x|` for which [`sincos`] takes its fast path and is within
/// 1 ulp of `sin x`, `cos x` (the exhaustive `sincos` test proves the bound
/// on every `f32` up to here). `x·2/π` then rounds to an `n < 2²⁰`, so
/// `n·PIO2_1` (33 significant bits) and the first subtraction of the
/// reduction are exact.
pub(crate) const SINCOS_FAST_MAX: f32 = 1_048_576.0;

/// π/2 split into 33 leading bits and a 53-bit tail (fdlibm's `pio2_1`,
/// `pio2_1t`).
const PIO2_1: f64 = 1.570_796_326_734_125_6;
const PIO2_1T: f64 = 6.077_100_506_506_192e-11;
/// 1.5·2⁵²: adding it rounds a double below 2⁵¹ in magnitude to an integer
/// held in the low bits of the sum's significand.
const SHIFTER: f64 = 6_755_399_441_055_744.0;
/// fdlibm's `__kernel_sin` / `__kernel_cos` coefficients on [−π/4, π/4]:
/// `sin r ≈ r·(1 + z·S(z))`, `cos r ≈ 1 − z/2 + z²·C(z)` with `z = r²`.
const SIN: [f64; 6] = [
    -1.666_666_666_666_663_2e-1,
    8.333_333_333_322_49e-3,
    -1.984_126_982_985_795e-4,
    2.755_731_370_707_007e-6,
    -2.505_076_025_340_686_3e-8,
    1.589_690_995_211_55e-10,
];
const COS: [f64; 6] = [
    4.166_666_666_666_66e-2,
    -1.388_888_888_887_411e-3,
    2.480_158_728_947_673e-5,
    -2.755_731_435_139_066_3e-7,
    2.087_572_321_298_175e-9,
    -1.135_964_755_778_819_5e-11,
];

/// `(sin x, cos x)` computed the same way on every host: the CPU
/// references' trig, in place of the host's libm.
///
/// For `|x| ≤` [`SINCOS_FAST_MAX`] it is branch-free: a Cody–Waite
/// reduction by π/2 in `f64`, the degree-13/14 polynomials, one rounding to
/// `f32`, and every step a separate IEEE `mul` or `add`. Each result is
/// within 1 ulp of the exact value rounded to `f32`. The cold path takes
/// larger finite `x` modulo the `f64` nearest 2π (exact, but that modulus
/// is off by 2.4e-16, so the absolute error grows as `|x|·4e-17` and no ulp
/// bound is claimed); non-finite `x` gives NaN for both.
#[inline]
pub(crate) fn sincos(x: f32) -> (f32, f32) {
    if x.abs() <= SINCOS_FAST_MAX {
        sincos_fast(x as f64)
    } else {
        sincos_cold(x)
    }
}

#[cold]
fn sincos_cold(x: f32) -> (f32, f32) {
    if x.is_finite() {
        sincos_fast(x as f64 % std::f64::consts::TAU)
    } else {
        (f32::NAN, f32::NAN)
    }
}

#[inline(always)]
fn sincos_fast(x: f64) -> (f32, f32) {
    // n = x·2/π to nearest; q = n mod 4 from the low significand bits (two's
    // complement there, so negative n reads right too).
    let t = x * std::f64::consts::FRAC_2_PI + SHIFTER;
    let n = t - SHIFTER;
    let q = (t.to_bits() & 3) as u32;
    let r = (x - n * PIO2_1) - n * PIO2_1T;
    let z = r * r;
    let ps = SIN[0] + z * (SIN[1] + z * (SIN[2] + z * (SIN[3] + z * (SIN[4] + z * SIN[5]))));
    let pc = COS[0] + z * (COS[1] + z * (COS[2] + z * (COS[3] + z * (COS[4] + z * COS[5]))));
    // The product form keeps sin(−0) = −0.
    let s = (r * (1.0 + z * ps)) as f32;
    let c = ((1.0 - 0.5 * z) + (z * z) * pc) as f32;
    // (sin x, cos x) is (s, c), (c, −s), (−s, −c), (−c, s) for q = 0..3.
    let (a, b) = if q & 1 == 0 { (s, c) } else { (c, s) };
    let flip = |v: f32, bit: u32| f32::from_bits(v.to_bits() ^ (bit & 2) << 30);
    (flip(a, q), flip(b, q + 1))
}

/// What [`phase_fold`] takes: voxel `x, y, z`, sample `kx, ky, kz`, and the
/// per-sample accumulate step.
pub(crate) type PhaseInputs<'a, A> = ([&'a [f32]; 3], [&'a [f32]; 3], A);

/// Voxels per batch of [`phase_fold`].
const LANES: usize = 8;

/// The MRI references' one loop. For every voxel `(x, y, z)` and every
/// sample `k` in order, `φ = 2π·(kx·x + ky·y + kz·z)` and
/// `acc(k, cos φ, sin φ, &mut re, &mut im)` updates the voxel's two sums,
/// which start at 0. The apps differ only in `acc`.
///
/// Voxels go eight at a time so the phase and [`sincos`] arithmetic
/// vectorizes; each voxel still sums in `k` order with the same `f32`
/// operations a one-voxel loop would do, so a voxel's result does not
/// depend on its batch. With AVX2 the body is compiled for it; the
/// portable body runs the same IEEE operations, without FMA, so both give
/// the same bits.
pub(crate) fn phase_fold<A>(
    voxels: [&[f32]; 3],
    samples: [&[f32]; 3],
    acc: A,
) -> (Vec<f32>, Vec<f32>)
where
    A: Fn(usize, f32, f32, &mut f32, &mut f32),
{
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU has AVX2.
        return unsafe { phase_fold_avx2(voxels, samples, acc) };
    }
    phase_fold_portable(voxels, samples, acc)
}

/// [`phase_fold`] compiled for AVX2; only a CPU with AVX2 may call it.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub(crate) fn phase_fold_avx2<A>(
    voxels: [&[f32]; 3],
    samples: [&[f32]; 3],
    acc: A,
) -> (Vec<f32>, Vec<f32>)
where
    A: Fn(usize, f32, f32, &mut f32, &mut f32),
{
    phase_fold_body(voxels, samples, acc)
}

pub(crate) fn phase_fold_portable<A>(
    voxels: [&[f32]; 3],
    samples: [&[f32]; 3],
    acc: A,
) -> (Vec<f32>, Vec<f32>)
where
    A: Fn(usize, f32, f32, &mut f32, &mut f32),
{
    phase_fold_body(voxels, samples, acc)
}

#[inline(always)]
fn phase_fold_body<A>(
    [x, y, z]: [&[f32]; 3],
    [kx, ky, kz]: [&[f32]; 3],
    acc: A,
) -> (Vec<f32>, Vec<f32>)
where
    A: Fn(usize, f32, f32, &mut f32, &mut f32),
{
    let (nv, nk) = (x.len(), kx.len());
    assert!(
        y.len() == nv && z.len() == nv,
        "voxel coordinate lengths differ"
    );
    assert!(
        ky.len() == nk && kz.len() == nk,
        "sample coordinate lengths differ"
    );
    let (mut out_re, mut out_im) = (vec![0.0f32; nv], vec![0.0f32; nv]);
    for v0 in (0..nv).step_by(LANES) {
        let w = LANES.min(nv - v0);
        // A partial last batch pads with voxels at the origin, then drops them.
        let batch = |c: &[f32]| {
            let mut l = [0.0f32; LANES];
            l[..w].copy_from_slice(&c[v0..v0 + w]);
            l
        };
        let (bx, by, bz) = (batch(x), batch(y), batch(z));
        let (mut re, mut im) = ([0.0f32; LANES], [0.0f32; LANES]);
        for k in 0..nk {
            let (a, b, c) = (kx[k], ky[k], kz[k]);
            let phi: [f32; LANES] = std::array::from_fn(|l| {
                std::f32::consts::TAU * (a * bx[l] + b * by[l] + c * bz[l])
            });
            let (mut sin, mut cos) = ([0.0f32; LANES], [0.0f32; LANES]);
            let mut fast = true;
            for l in 0..LANES {
                (sin[l], cos[l]) = sincos_fast(phi[l] as f64);
                fast &= phi[l].abs() <= SINCOS_FAST_MAX;
            }
            if !fast {
                for l in 0..LANES {
                    (sin[l], cos[l]) = sincos(phi[l]);
                }
            }
            for l in 0..LANES {
                acc(k, cos[l], sin[l], &mut re[l], &mut im[l]);
            }
        }
        out_re[v0..v0 + w].copy_from_slice(&re[..w]);
        out_im[v0..v0 + w].copy_from_slice(&im[..w]);
    }
    (out_re, out_im)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_error_metric() {
        assert_eq!(max_rel_error(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        let e = max_rel_error(&[1.1], &[1.0]);
        assert!((e - 0.1).abs() < 1e-6);
        // Tiny references use absolute error.
        let e = max_rel_error(&[1e-5], &[0.0]);
        assert!(e < 1e-4);
    }

    #[test]
    fn workload_is_deterministic() {
        assert_eq!(random_f32(7, 16, 0.0, 1.0), random_f32(7, 16, 0.0, 1.0));
        assert_ne!(random_f32(7, 16, 0.0, 1.0), random_f32(8, 16, 0.0, 1.0));
    }

    #[test]
    fn speedup_arithmetic() {
        // Build a minimal KernelStats via a real trivial launch.
        let stats_dummy;
        {
            use g80_isa::builder::KernelBuilder;
            use g80_isa::Value;
            use g80_sim::{launch, DeviceMemory, GpuConfig, LaunchDims};
            let mut b = KernelBuilder::new("t");
            let p = b.param();
            b.st_global(p, 0, 1.0f32);
            let k = b.build();
            let mem = DeviceMemory::new(64);
            stats_dummy = Some(
                launch(
                    &GpuConfig::geforce_8800_gtx(),
                    &k,
                    LaunchDims {
                        grid: (1, 1),
                        block: (32, 1, 1),
                    },
                    &[Value::from_u32(0)],
                    &mem,
                )
                .unwrap(),
            );
        }
        let rep = AppReport {
            name: "x",
            description: "",
            stats: stats_dummy.unwrap(),
            timeline: Timeline {
                kernel_s: 1.0,
                h2d_s: 0.5,
                d2h_s: 0.5,
                launches: 1,
                kernel_cycles: 0,
                memo_hits: 0,
                disk_hits: 0,
                rows: Default::default(),
            },
            cpu_kernel_s: 100.0,
            kernel_cpu_fraction: 0.5,
            max_rel_error: 0.0,
        };
        assert!((rep.kernel_speedup() - 100.0).abs() < 1e-9);
        // cpu_total=200, cpu_rest=100, gpu_total=100+2=102 → 200/102
        assert!((rep.app_speedup() - 200.0 / 102.0).abs() < 1e-9);
        assert!((rep.gpu_exec_fraction() - 0.5).abs() < 1e-9);
    }

    /// Distance in representable `f32`s (±0 are one point).
    fn ulps(a: f32, b: f32) -> u64 {
        let ord = |v: f32| {
            let m = (v.to_bits() & 0x7fff_ffff) as i64;
            if v.is_sign_negative() {
                -m
            } else {
                m
            }
        };
        ord(a).abs_diff(ord(b))
    }

    /// How far `sincos(x)` is from the exact values rounded to `f32`.
    fn sincos_ulps(x: f32) -> (u64, u64) {
        let (s, c) = sincos(x);
        let x = x as f64;
        (ulps(s, x.sin() as f32), ulps(c, x.cos() as f32))
    }

    #[test]
    fn sincos_is_within_one_ulp_on_a_dense_sweep_of_the_mri_range() {
        // Every phase either MRI generator can make lies inside |φ| ≤ 64:
        // |φ| ≤ 2π·Σ max|k_i|·max|x_i|, widened for f32 rounding.
        let max_abs = |v: &[f32]| v.iter().fold(0.0f64, |m, &x| m.max(x.abs() as f64));
        let bound = |vox: [&[f32]; 3], smp: [&[f32]; 3]| {
            let sum: f64 = (0..3).map(|i| max_abs(vox[i]) * max_abs(smp[i])).sum();
            std::f64::consts::TAU * sum * 1.001
        };
        let q = crate::mriq::MriQ::default();
        let dq = q.generate(17);
        let (v, s, _) = q.phase_inputs(&dq);
        assert!(bound(v, s) <= 64.0, "MRI-Q phases reach {}", bound(v, s));
        let f = crate::mrifhd::MriFhd::default();
        let df = f.generate(23);
        let (v, s, _) = f.phase_inputs(&df);
        assert!(bound(v, s) <= 64.0, "MRI-FHD phases reach {}", bound(v, s));

        let top = 64.0f32.to_bits();
        for bits in (0..=top).step_by(509).chain([top]) {
            for x in [f32::from_bits(bits), -f32::from_bits(bits)] {
                let (es, ec) = sincos_ulps(x);
                assert!(es <= 1 && ec <= 1, "sincos({x:e}): {es}/{ec} ulp");
            }
        }
    }

    #[test]
    fn sincos_special_inputs() {
        for z in [0.0f32, -0.0] {
            let (s, c) = sincos(z);
            assert_eq!((s.to_bits(), c), (z.to_bits(), 1.0), "sincos({z})");
        }
        // Subnormals: sin x = x and cos x = 1 exactly.
        for bits in [1u32, 2, 0x0000_1234, 0x007f_ffff] {
            for x in [f32::from_bits(bits), -f32::from_bits(bits)] {
                assert_eq!(sincos(x), (x, 1.0), "sincos({x:e})");
            }
        }
        // Multiples of π/4, where the reduction picks a quadrant edge, and the
        // ends of the fast range.
        let max = SINCOS_FAST_MAX;
        let edges = (-64..=64).map(|k| k as f32 * std::f32::consts::FRAC_PI_4);
        for x in edges.chain([max, -max, max.next_down()]) {
            let (es, ec) = sincos_ulps(x);
            assert!(es <= 1 && ec <= 1, "sincos({x:e}): {es}/{ec} ulp");
        }
        // Past it, the stated cold path: reduce modulo the f64 τ first.
        for x in [max.next_up(), -max.next_up(), 1e30, f32::MAX, f32::MIN] {
            assert_eq!(
                sincos(x),
                sincos_fast(x as f64 % std::f64::consts::TAU),
                "sincos({x:e})"
            );
        }
        for x in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
            let (s, c) = sincos(x);
            assert!(s.is_nan() && c.is_nan(), "sincos({x})");
        }
    }

    /// All 2³² bit patterns, the fast range checked against the 1-ulp bound.
    /// About a minute in release; the CI release job runs it with `--ignored`.
    #[test]
    #[ignore = "exhaustive: every f32 in the fast range; run with --release"]
    fn sincos_is_within_one_ulp_on_every_fast_path_input() {
        let top = SINCOS_FAST_MAX.to_bits();
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get()) as u32;
        let chunk = top / workers + 1;
        std::thread::scope(|scope| {
            for w in 0..workers {
                scope.spawn(move || {
                    let hi = top.min((w + 1).saturating_mul(chunk).saturating_sub(1));
                    for bits in w * chunk..=hi {
                        for x in [f32::from_bits(bits), -f32::from_bits(bits)] {
                            let (es, ec) = sincos_ulps(x);
                            assert!(es <= 1 && ec <= 1, "sincos({x:e}): {es}/{ec} ulp");
                        }
                    }
                });
            }
        });
    }

    /// Bits of a fold's two outputs.
    fn bits((re, im): (Vec<f32>, Vec<f32>)) -> Vec<[u32; 2]> {
        re.iter()
            .zip(&im)
            .map(|(r, i)| [r.to_bits(), i.to_bits()])
            .collect()
    }

    /// The AVX2 and portable folds give the same bits, and a voxel's sums do
    /// not depend on its batch: the last batch alone, and the first voxel
    /// alone, give the bits they gave inside the full fold.
    fn assert_fold_paths_agree<A>((voxels, samples, acc): PhaseInputs<'_, A>)
    where
        A: Fn(usize, f32, f32, &mut f32, &mut f32) + Copy,
    {
        let portable = bits(phase_fold_portable(voxels, samples, acc));
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU has AVX2.
            let avx2 = bits(unsafe { phase_fold_avx2(voxels, samples, acc) });
            assert!(
                portable == avx2,
                "the AVX2 fold differs from the portable one"
            );
        }
        let last = portable.len() / LANES * LANES;
        let tail = voxels.map(|c| &c[last..]);
        assert_eq!(
            bits(phase_fold_portable(tail, samples, acc)),
            portable[last..]
        );
        let head = voxels.map(|c| &c[..1]);
        assert_eq!(bits(phase_fold_portable(head, samples, acc)), portable[..1]);
    }

    #[test]
    fn phase_fold_paths_agree_bit_for_bit_on_both_references() {
        // 2051 voxels: the last batch of eight holds three.
        let q = crate::mriq::MriQ {
            n_voxels: 2051,
            n_k: 128,
        };
        let dq = q.generate(31);
        let f = crate::mrifhd::MriFhd {
            n_voxels: 2051,
            n_k: 128,
        };
        let df = f.generate(32);
        let (v, s, acc) = q.phase_inputs(&dq);
        assert_fold_paths_agree((v, s, &acc));
        let (v, s, acc) = f.phase_inputs(&df);
        assert_fold_paths_agree((v, s, &acc));
    }

    /// The oracle's oracle: each reference against the loop it replaced,
    /// scalar and on the host's libm, at 2048 voxels × 128 samples.
    #[test]
    fn mri_references_agree_with_a_scalar_libm_loop() {
        use std::f32::consts::TAU;
        let q = crate::mriq::MriQ {
            n_voxels: 2048,
            n_k: 128,
        };
        let d = q.generate(2);
        let (mut wr, mut wi) = (vec![0.0f32; 2048], vec![0.0f32; 2048]);
        for v in 0..2048 {
            for k in 0..128 {
                let phi = TAU * (d.kx[k] * d.x[v] + d.ky[k] * d.y[v] + d.kz[k] * d.z[v]);
                wr[v] += d.phi_mag[k] * phi.cos();
                wi[v] += d.phi_mag[k] * phi.sin();
            }
        }
        let (qr, qi) = q.cpu_reference(&d);
        let err = rms_rel_error(&qr, &wr).max(rms_rel_error(&qi, &wi));
        assert!(err <= 1e-6, "MRI-Q reference vs libm loop: rms {err:e}");

        let f = crate::mrifhd::MriFhd {
            n_voxels: 2048,
            n_k: 128,
        };
        let d = f.generate(9);
        let (mut wr, mut wi) = (vec![0.0f32; 2048], vec![0.0f32; 2048]);
        for v in 0..2048 {
            for k in 0..128 {
                let phi = TAU * (d.kx[k] * d.x[v] + d.ky[k] * d.y[v] + d.kz[k] * d.z[v]);
                let (s, c) = (phi.sin(), phi.cos());
                wr[v] += d.r_mu[k] * c - d.i_mu[k] * s;
                wi[v] += d.i_mu[k] * c + d.r_mu[k] * s;
            }
        }
        let (rf, ifh) = f.cpu_reference(&d);
        let err = rms_rel_error(&rf, &wr).max(rms_rel_error(&ifh, &wi));
        assert!(err <= 1e-6, "MRI-FHD reference vs libm loop: rms {err:e}");
    }
}
