//! MRI-Q — computation of the Q matrix for non-Cartesian MRI
//! reconstruction (Stone et al., \[25\] in the paper).
//!
//! For every voxel, accumulate `phiMag_k * (cos φ, sin φ)` over all k-space
//! samples, with `φ = 2π (kx·x + ky·y + kz·z)`. The optimized CUDA port
//! keeps the k-space trajectory in constant memory (every thread reads the
//! same sample simultaneously — a broadcast) and leans on the SFU sin/cos,
//! which the paper credits with roughly 30% of the speedup. The highest
//! kernel speedup of the suite (457×).

use crate::common::{self, AppReport};
use g80_cuda::{CpuModel, CpuTuning, CpuWork, Device, Timeline};
use g80_isa::builder::{KernelBuilder, Unroll};
use g80_isa::Kernel;
use g80_isa::{Operand, SfuOp};
use g80_sim::KernelStats;

const TWO_PI: f32 = std::f32::consts::TAU;

/// The MRI-Q workload: `n_voxels` voxels, `n_k` k-space samples (≤ 4096 so
/// one constant-memory batch of kx/ky/kz/phiMag fits).
#[derive(Copy, Clone, Debug)]
pub struct MriQ {
    pub n_voxels: u32,
    pub n_k: u32,
}

impl Default for MriQ {
    fn default() -> Self {
        MriQ {
            n_voxels: 1 << 15,
            n_k: 1024,
        }
    }
}

/// Voxel coordinates and k-space trajectory.
pub struct MriqData {
    pub x: Vec<f32>,
    pub y: Vec<f32>,
    pub z: Vec<f32>,
    pub kx: Vec<f32>,
    pub ky: Vec<f32>,
    pub kz: Vec<f32>,
    pub phi_mag: Vec<f32>,
}

impl MriQ {
    /// Generates voxel positions and a random k-space trajectory.
    pub fn generate(&self, seed: u64) -> MriqData {
        let nv = self.n_voxels as usize;
        let nk = self.n_k as usize;
        MriqData {
            x: common::random_f32(seed, nv, -0.5, 0.5),
            y: common::random_f32(seed ^ 1, nv, -0.5, 0.5),
            z: common::random_f32(seed ^ 2, nv, -0.5, 0.5),
            kx: common::random_f32(seed ^ 3, nk, -4.0, 4.0),
            ky: common::random_f32(seed ^ 4, nk, -4.0, 4.0),
            kz: common::random_f32(seed ^ 5, nk, -4.0, 4.0),
            phi_mag: common::random_f32(seed ^ 6, nk, 0.0, 1.0),
        }
    }

    /// Sequential reference: (Qr, Qi).
    pub fn cpu_reference(&self, d: &MriqData) -> (Vec<f32>, Vec<f32>) {
        let (voxels, samples, acc) = self.phase_inputs(d);
        common::phase_fold(voxels, samples, acc)
    }

    /// The reference as a [`common::phase_fold`]: Q sums `phiMag_k·(cos φ, sin φ)`.
    pub(crate) fn phase_inputs<'a>(
        &self,
        d: &'a MriqData,
    ) -> common::PhaseInputs<'a, impl Fn(usize, f32, f32, &mut f32, &mut f32) + 'a> {
        let (nv, nk) = (self.n_voxels as usize, self.n_k as usize);
        let mag = &d.phi_mag[..nk];
        (
            [&d.x[..nv], &d.y[..nv], &d.z[..nv]],
            [&d.kx[..nk], &d.ky[..nk], &d.kz[..nk]],
            move |k, c, s, re: &mut f32, im: &mut f32| {
                *re += mag[k] * c;
                *im += mag[k] * s;
            },
        )
    }

    /// CPU cost: two transcendentals plus ~10 FLOPs per voxel-sample pair.
    pub fn cpu_work(&self) -> CpuWork {
        let pairs = self.n_voxels as f64 * self.n_k as f64;
        CpuWork {
            flops: 10.0 * pairs,
            trig_ops: 2.0 * pairs,
            bytes: self.n_voxels as f64 * 5.0 * 4.0,
            int_ops: pairs * 0.5,
        }
    }

    /// The optimized kernel. `use_sfu = false` is the Section 5.1 ablation:
    /// trig computed with a 9-term polynomial on the SPs instead of the SFU.
    pub fn kernel(&self, use_sfu: bool) -> Kernel {
        let mut b = KernelBuilder::new(if use_sfu { "mriq" } else { "mriq_poly" });
        let (xp, yp, zp, qrp, qip) = (b.param(), b.param(), b.param(), b.param(), b.param());
        let i = common::global_tid_x(&mut b);
        let byte = b.shl(i, 2u32);
        let xa = b.iadd(byte, xp);
        let x = b.ld_global(xa, 0);
        let ya = b.iadd(byte, yp);
        let y = b.ld_global(ya, 0);
        let za = b.iadd(byte, zp);
        let z = b.ld_global(za, 0);
        let ar = b.mov(Operand::imm_f(0.0));
        let ai = b.mov(Operand::imm_f(0.0));

        // Constant layout: kx[n_k] | ky[n_k] | kz[n_k] | phiMag[n_k].
        let nk = self.n_k as i32;
        // Partial unroll by 4 keeps code size sane at full pipelines.
        b.for_range(0u32, self.n_k, 1, Unroll::By(4), |b, kk| {
            // kk arrives as an immediate or a register; scale to bytes.
            let koff = b.shl(kk, 2u32);
            let kx = b.ld_const(koff, 0);
            let ky = b.ld_const(koff, nk * 4);
            let kz = b.ld_const(koff, nk * 8);
            let mag = b.ld_const(koff, nk * 12);
            let t = b.fmul(kx, x);
            let t = b.ffma(ky, y, t);
            let t = b.ffma(kz, z, t);
            let phi = b.fmul(t, TWO_PI);
            let (c, s) = if use_sfu {
                (b.sfu(SfuOp::Cos, phi), b.sfu(SfuOp::Sin, phi))
            } else {
                poly_sincos(b, phi)
            };
            b.ffma_to(ar, mag, c, ar);
            b.ffma_to(ai, mag, s, ai);
        });

        let qra = b.iadd(byte, qrp);
        b.st_global(qra, 0, ar);
        let qia = b.iadd(byte, qip);
        b.st_global(qia, 0, ai);
        b.build()
    }

    /// Runs on a fresh device.
    pub fn run(&self, d: &MriqData, use_sfu: bool) -> (Vec<f32>, Vec<f32>, KernelStats, Timeline) {
        let nv = self.n_voxels;
        assert!(
            nv > 0 && nv.is_multiple_of(256),
            "n_voxels must be a positive multiple of 256"
        );
        let mut dev = Device::new(nv * 5 * 4 + 8192);
        let dx = dev.alloc::<f32>(nv as usize);
        let dy = dev.alloc::<f32>(nv as usize);
        let dz = dev.alloc::<f32>(nv as usize);
        let dqr = dev.alloc::<f32>(nv as usize);
        let dqi = dev.alloc::<f32>(nv as usize);
        dev.copy_to_device(&dx, &d.x);
        dev.copy_to_device(&dy, &d.y);
        dev.copy_to_device(&dz, &d.z);
        let mut cdata = Vec::with_capacity(4 * self.n_k as usize);
        cdata.extend_from_slice(&d.kx);
        cdata.extend_from_slice(&d.ky);
        cdata.extend_from_slice(&d.kz);
        cdata.extend_from_slice(&d.phi_mag);
        dev.set_const(&cdata);

        let k = self.kernel(use_sfu);
        let stats = dev
            .launch(
                &k,
                (nv / 256, 1),
                (256, 1, 1),
                &[
                    dx.as_param(),
                    dy.as_param(),
                    dz.as_param(),
                    dqr.as_param(),
                    dqi.as_param(),
                ],
            )
            .expect("mriq launch");
        let qr = dev.copy_from_device(&dqr);
        let qi = dev.copy_from_device(&dqi);
        (qr, qi, stats, dev.timeline())
    }

    /// Table 2/3 record.
    pub fn report(&self) -> AppReport {
        let d = self.generate(17);
        let (wr, wi) = self.cpu_reference(&d);
        let (qr, qi, stats, timeline) = self.run(&d, true);
        let err = common::rms_rel_error(&qr, &wr).max(common::rms_rel_error(&qi, &wi));
        AppReport {
            name: "MRI-Q",
            description: "MRI reconstruction: Q matrix for non-Cartesian scan data",
            stats,
            timeline,
            cpu_kernel_s: CpuModel::opteron_248().time(&self.cpu_work(), CpuTuning::SimdFastMath),
            kernel_cpu_fraction: 0.998,
            max_rel_error: err,
        }
    }
}

/// A 9-term minimax-style polynomial sin/cos on the SPs — what the kernel
/// would have to do without SFUs. Range-reduces φ to [-π, π] first.
fn poly_sincos(b: &mut KernelBuilder, phi: g80_isa::Reg) -> (g80_isa::Reg, g80_isa::Reg) {
    use std::f32::consts::PI;
    // n = round(phi / 2π); r = phi - n*2π
    let inv2pi = b.fmul(phi, 1.0 / TWO_PI);
    let half = b.fadd(inv2pi, 0.5f32);
    let n = b.un(g80_isa::UnOp::FFloor, half);
    let r = b.ffma(n, -TWO_PI, phi); // r ∈ [-π, π]

    // sin(r) ≈ r + s3 r³ + s5 r⁵ + s7 r⁷ ; cos(r) ≈ 1 + c2 r² + c4 r⁴ + c6 r⁶
    // (Taylor with slight end-correction; fine for performance modeling and
    // ~1e-3 accuracy at ±π.)
    let r2 = b.fmul(r, r);
    let s = b.mov(Operand::imm_f(-2.3889859e-8)); // r^9 term start
    b.ffma_to(s, s, r2, Operand::imm_f(2.7525562e-6));
    b.ffma_to(s, s, r2, Operand::imm_f(-0.00019840874));
    b.ffma_to(s, s, r2, Operand::imm_f(0.008_333_331));
    b.ffma_to(s, s, r2, Operand::imm_f(-0.16666667));
    b.ffma_to(s, s, r2, Operand::imm_f(1.0));
    let sin = b.fmul(s, r);

    let c = b.mov(Operand::imm_f(-2.605e-7));
    b.ffma_to(c, c, r2, Operand::imm_f(2.47609e-5));
    b.ffma_to(c, c, r2, Operand::imm_f(-0.0013888397));
    b.ffma_to(c, c, r2, Operand::imm_f(0.041_666_42));
    b.ffma_to(c, c, r2, Operand::imm_f(-0.5));
    b.ffma_to(c, c, r2, Operand::imm_f(1.0));
    let _ = PI;
    (c, sin)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> MriQ {
        MriQ {
            n_voxels: 2048,
            n_k: 128,
        }
    }

    #[test]
    fn matches_reference() {
        let m = small();
        let d = m.generate(2);
        let (wr, wi) = m.cpu_reference(&d);
        let (qr, qi, _, _) = m.run(&d, true);
        let err = common::rms_rel_error(&qr, &wr).max(common::rms_rel_error(&qi, &wi));
        assert!(err < 1e-3, "err {err}");
    }

    #[test]
    fn polynomial_fallback_matches_loosely() {
        let m = small();
        let d = m.generate(3);
        let (wr, wi) = m.cpu_reference(&d);
        let (qr, qi, _, _) = m.run(&d, false);
        let err = common::rms_rel_error(&qr, &wr).max(common::rms_rel_error(&qi, &wi));
        assert!(err < 5e-2, "err {err}");
    }

    #[test]
    fn sfu_buys_a_large_fraction_of_performance() {
        // Section 5.1: SFU trig accounts for ~30% of the MRI speedup.
        let m = small();
        let d = m.generate(4);
        let (_, _, sfu, _) = m.run(&d, true);
        let (_, _, poly, _) = m.run(&d, false);
        let gain = poly.cycles as f64 / sfu.cycles as f64;
        assert!(
            (1.15..4.0).contains(&gain),
            "SFU gain {gain} out of plausible range"
        );
    }

    #[test]
    fn trig_dominated_and_compute_bound() {
        let m = small();
        let d = m.generate(5);
        let (_, _, stats, _) = m.run(&d, true);
        let sfu = stats.by_class[&g80_isa::InstClass::Sfu];
        assert!(sfu as f64 > 0.1 * stats.warp_instructions as f64);
        assert!(stats.global_to_compute_ratio() < 0.1);
    }

    #[test]
    fn report_kernel_speedup_is_enormous() {
        let r = MriQ {
            n_voxels: 8192,
            n_k: 512,
        }
        .report();
        assert!(r.max_rel_error < 1e-3);
        // Paper: 457x kernel, 431x app.
        let s = r.kernel_speedup();
        assert!((100.0..800.0).contains(&s), "kernel speedup {s}");
        assert!(r.app_speedup() > 50.0, "app speedup {}", r.app_speedup());
    }
}
