//! MRI-FHD — computation of F^H d for non-Cartesian MRI reconstruction.
//!
//! Structurally the sibling of MRI-Q: per voxel, accumulate the real and
//! imaginary parts of `(rMu_k + i·iMu_k) · e^{iφ}` over all k-space samples.
//! Six FLOPs more per sample than Q (complex multiply instead of scalar
//! magnitude), same constant-memory + SFU recipe, slightly lower speedup in
//! the paper (316× kernel).

use crate::common::{self, AppReport};
use g80_cuda::{CpuModel, CpuTuning, CpuWork, Device, Timeline};
use g80_isa::builder::{KernelBuilder, Unroll};
use g80_isa::inst::{Operand, SfuOp};
use g80_isa::Kernel;
use g80_sim::KernelStats;

const TWO_PI: f32 = std::f32::consts::TAU;

/// The MRI-FHD workload.
#[derive(Copy, Clone, Debug)]
pub struct MriFhd {
    pub n_voxels: u32,
    pub n_k: u32,
}

impl Default for MriFhd {
    fn default() -> Self {
        MriFhd {
            n_voxels: 1 << 15,
            n_k: 1024,
        }
    }
}

/// Voxel grid and k-space data (trajectory + complex sample values).
pub struct FhdData {
    pub x: Vec<f32>,
    pub y: Vec<f32>,
    pub z: Vec<f32>,
    pub kx: Vec<f32>,
    pub ky: Vec<f32>,
    pub kz: Vec<f32>,
    pub r_mu: Vec<f32>,
    pub i_mu: Vec<f32>,
}

impl MriFhd {
    /// Generates a random scan.
    pub fn generate(&self, seed: u64) -> FhdData {
        let nv = self.n_voxels as usize;
        let nk = self.n_k as usize;
        FhdData {
            x: common::random_f32(seed, nv, -0.5, 0.5),
            y: common::random_f32(seed ^ 1, nv, -0.5, 0.5),
            z: common::random_f32(seed ^ 2, nv, -0.5, 0.5),
            kx: common::random_f32(seed ^ 3, nk, -4.0, 4.0),
            ky: common::random_f32(seed ^ 4, nk, -4.0, 4.0),
            kz: common::random_f32(seed ^ 5, nk, -4.0, 4.0),
            r_mu: common::random_f32(seed ^ 6, nk, -1.0, 1.0),
            i_mu: common::random_f32(seed ^ 7, nk, -1.0, 1.0),
        }
    }

    /// Sequential reference: (rFhD, iFhD).
    pub fn cpu_reference(&self, d: &FhdData) -> (Vec<f32>, Vec<f32>) {
        let (voxels, samples, acc) = self.phase_inputs(d);
        common::phase_fold(voxels, samples, acc)
    }

    /// The reference as a [`common::phase_fold`]: F^H d sums
    /// `(rMu_k + i·iMu_k)·(cos φ + i·sin φ)`.
    pub(crate) fn phase_inputs<'a>(
        &self,
        d: &'a FhdData,
    ) -> common::PhaseInputs<'a, impl Fn(usize, f32, f32, &mut f32, &mut f32) + 'a> {
        let (nv, nk) = (self.n_voxels as usize, self.n_k as usize);
        let (r_mu, i_mu) = (&d.r_mu[..nk], &d.i_mu[..nk]);
        (
            [&d.x[..nv], &d.y[..nv], &d.z[..nv]],
            [&d.kx[..nk], &d.ky[..nk], &d.kz[..nk]],
            move |k, c, s, re: &mut f32, im: &mut f32| {
                *re += r_mu[k] * c - i_mu[k] * s;
                *im += i_mu[k] * c + r_mu[k] * s;
            },
        )
    }

    /// CPU cost per pair: two transcendentals + ~14 FLOPs.
    pub fn cpu_work(&self) -> CpuWork {
        let pairs = self.n_voxels as f64 * self.n_k as f64;
        CpuWork {
            flops: 14.0 * pairs,
            trig_ops: 2.0 * pairs,
            bytes: self.n_voxels as f64 * 5.0 * 4.0,
            int_ops: pairs * 0.5,
        }
    }

    /// The optimized kernel (constant memory + SFU, partially unrolled).
    pub fn kernel(&self) -> Kernel {
        let mut b = KernelBuilder::new("mrifhd");
        let (xp, yp, zp, rp, ip) = (b.param(), b.param(), b.param(), b.param(), b.param());
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

        // Constant layout: kx | ky | kz | rMu | iMu, each n_k words.
        let nk = self.n_k as i32;
        b.for_range(0u32, self.n_k, 1, Unroll::By(4), |b, kk| {
            let koff = b.shl(kk, 2u32);
            let kx = b.ld_const(koff, 0);
            let ky = b.ld_const(koff, nk * 4);
            let kz = b.ld_const(koff, nk * 8);
            let rmu = b.ld_const(koff, nk * 12);
            let imu = b.ld_const(koff, nk * 16);
            let t = b.fmul(kx, x);
            let t = b.ffma(ky, y, t);
            let t = b.ffma(kz, z, t);
            let phi = b.fmul(t, TWO_PI);
            let c = b.sfu(SfuOp::Cos, phi);
            let s = b.sfu(SfuOp::Sin, phi);
            // ar += rMu*c - iMu*s ; ai += iMu*c + rMu*s
            b.ffma_to(ar, rmu, c, ar);
            let ns = b.un(g80_isa::UnOp::FNeg, s);
            b.ffma_to(ar, imu, ns, ar);
            b.ffma_to(ai, imu, c, ai);
            b.ffma_to(ai, rmu, s, ai);
        });

        let ra = b.iadd(byte, rp);
        b.st_global(ra, 0, ar);
        let ia = b.iadd(byte, ip);
        b.st_global(ia, 0, ai);
        b.build()
    }

    /// Runs on a fresh device.
    pub fn run(&self, d: &FhdData) -> (Vec<f32>, Vec<f32>, KernelStats, Timeline) {
        let nv = self.n_voxels;
        assert!(
            nv > 0 && nv.is_multiple_of(256),
            "n_voxels must be a positive multiple of 256"
        );
        let mut dev = Device::new(nv * 5 * 4 + 8192);
        let dx = dev.alloc::<f32>(nv as usize);
        let dy = dev.alloc::<f32>(nv as usize);
        let dz = dev.alloc::<f32>(nv as usize);
        let dr = dev.alloc::<f32>(nv as usize);
        let di = dev.alloc::<f32>(nv as usize);
        dev.copy_to_device(&dx, &d.x);
        dev.copy_to_device(&dy, &d.y);
        dev.copy_to_device(&dz, &d.z);
        let mut cdata = Vec::with_capacity(5 * self.n_k as usize);
        cdata.extend_from_slice(&d.kx);
        cdata.extend_from_slice(&d.ky);
        cdata.extend_from_slice(&d.kz);
        cdata.extend_from_slice(&d.r_mu);
        cdata.extend_from_slice(&d.i_mu);
        dev.set_const(&cdata);

        let k = self.kernel();
        let stats = dev
            .launch(
                &k,
                (nv / 256, 1),
                (256, 1, 1),
                &[
                    dx.as_param(),
                    dy.as_param(),
                    dz.as_param(),
                    dr.as_param(),
                    di.as_param(),
                ],
            )
            .expect("mrifhd launch");
        let rf = dev.copy_from_device(&dr);
        let ifh = dev.copy_from_device(&di);
        (rf, ifh, stats, dev.timeline())
    }

    /// Table 2/3 record.
    pub fn report(&self) -> AppReport {
        let d = self.generate(23);
        let (wr, wi) = self.cpu_reference(&d);
        let (rf, ifh, stats, timeline) = self.run(&d);
        let err = common::rms_rel_error(&rf, &wr).max(common::rms_rel_error(&ifh, &wi));
        AppReport {
            name: "MRI-FHD",
            description: "MRI reconstruction: F^H d matrix-vector product",
            stats,
            timeline,
            cpu_kernel_s: CpuModel::opteron_248().time(&self.cpu_work(), CpuTuning::SimdFastMath),
            kernel_cpu_fraction: 0.995,
            max_rel_error: err,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference() {
        let m = MriFhd {
            n_voxels: 2048,
            n_k: 128,
        };
        let d = m.generate(9);
        let (wr, wi) = m.cpu_reference(&d);
        let (rf, ifh, _, _) = m.run(&d);
        let err = common::rms_rel_error(&rf, &wr).max(common::rms_rel_error(&ifh, &wi));
        assert!(err < 1e-3, "err {err}");
    }

    #[test]
    fn report_speedup_between_saxpy_and_mriq() {
        let r = MriFhd {
            n_voxels: 8192,
            n_k: 512,
        }
        .report();
        assert!(r.max_rel_error < 1e-3);
        // Paper: 316x kernel (vs MRI-Q's 457x).
        let s = r.kernel_speedup();
        assert!((80.0..600.0).contains(&s), "kernel speedup {s}");
    }

    #[test]
    fn const_reads_are_broadcasts() {
        let m = MriFhd {
            n_voxels: 2048,
            n_k: 128,
        };
        let d = m.generate(10);
        let (_, _, stats, _) = m.run(&d);
        assert!(stats.const_hits > 50 * stats.const_misses.max(1));
    }
}
