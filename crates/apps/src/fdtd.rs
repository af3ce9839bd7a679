//! FDTD — finite-difference time-domain electromagnetic simulation.
//!
//! A 2D TM-mode Yee grid: `Hx`/`Hy` updates from curl(Ez), then `Ez` from
//! curl(H), alternating each half-step. Like LBM it is *time-sliced*: the E
//! update must see every H write of the half-step before, so each half-step
//! is its own kernel launch (the paper's global-synchronization pattern),
//! and each launch streams the whole grid through DRAM — squarely
//! memory-bandwidth-bound.
//!
//! FDTD is also the suite's Amdahl cautionary tale: only 16.4% of the CPU
//! application's time is in this kernel (Table 2), "limiting potential
//! application speedup to 1.2X".

use crate::common::{self, AppReport};
use g80_cuda::{CpuModel, CpuTuning, CpuWork, Device, Timeline};
use g80_isa::builder::KernelBuilder;
use g80_isa::{CmpOp, Operand, Scalar};
use g80_isa::{Kernel, Pred};
use g80_sim::KernelStats;

const CH: f32 = 0.45; // dt/(mu*dx)
const CE: f32 = 0.45; // dt/(eps*dx)
const TPB: u32 = 128;

/// The FDTD workload: an n×n grid stepped `steps` full steps. `n` must be a
/// power of two ≥ 128.
#[derive(Copy, Clone, Debug)]
pub struct Fdtd {
    pub n: u32,
    pub steps: u32,
}

impl Default for Fdtd {
    fn default() -> Self {
        Fdtd { n: 256, steps: 8 }
    }
}

/// Field state: Ez, Hx, Hy as flat n×n arrays.
#[derive(Clone)]
pub struct Fields {
    pub ez: Vec<f32>,
    pub hx: Vec<f32>,
    pub hy: Vec<f32>,
}

impl Fdtd {
    /// A Gaussian pulse in the middle of an otherwise quiet grid.
    pub fn initial_state(&self) -> Fields {
        let n = self.n as usize;
        let mut ez = vec![0.0f32; n * n];
        for y in 0..n {
            for x in 0..n {
                let dx = x as f32 - n as f32 / 2.0;
                let dy = y as f32 - n as f32 / 2.0;
                ez[y * n + x] = (-(dx * dx + dy * dy) / 64.0).exp();
            }
        }
        Fields {
            ez,
            hx: vec![0.0f32; n * n],
            hy: vec![0.0f32; n * n],
        }
    }

    /// Sequential reference (zero boundary: edge cells hold their values).
    pub fn cpu_reference(&self, f0: &Fields) -> Fields {
        let n = self.n as usize;
        let mut f = f0.clone();
        for _ in 0..self.steps {
            // H half-step.
            for y in 0..n - 1 {
                for x in 0..n - 1 {
                    let i = y * n + x;
                    f.hx[i] -= CH * (f.ez[i + n] - f.ez[i]);
                    f.hy[i] += CH * (f.ez[i + 1] - f.ez[i]);
                }
            }
            // E half-step.
            for y in 1..n {
                for x in 1..n {
                    let i = y * n + x;
                    f.ez[i] += CE * ((f.hy[i] - f.hy[i - 1]) - (f.hx[i] - f.hx[i - n]));
                }
            }
        }
        f
    }

    /// CPU cost per cell-step: ~12 FLOPs and 10 words of traffic (the grid
    /// does not fit in cache).
    pub fn cpu_work(&self) -> CpuWork {
        let cells = (self.n as f64).powi(2) * self.steps as f64;
        CpuWork {
            flops: 12.0 * cells,
            bytes: 10.0 * 4.0 * cells,
            int_ops: 8.0 * cells,
            ..Default::default()
        }
    }

    /// The H-update kernel (one thread per cell, predicated edges).
    pub fn h_kernel(&self) -> Kernel {
        let n = self.n;
        let mut b = KernelBuilder::new("fdtd_h");
        let (ezp, hxp, hyp) = (b.param(), b.param(), b.param());
        let cell = common::global_tid_x(&mut b);
        let x = b.and(cell, n - 1);
        let y = b.shr(cell, n.trailing_zeros());
        let px = b.setp(CmpOp::Lt, Scalar::U32, x, n - 1);
        let py = b.setp(CmpOp::Lt, Scalar::U32, y, n - 1);
        let inside = b.and(px, py);
        b.if_(Pred::if_true(inside), |b| {
            let byte = b.shl(cell, 2u32);
            let eza = b.iadd(byte, ezp);
            let ez = b.ld_global(eza, 0);
            let ez_yp = b.ld_global(eza, (n * 4) as i32);
            let ez_xp = b.ld_global(eza, 4);
            let hxa = b.iadd(byte, hxp);
            let hx = b.ld_global(hxa, 0);
            let dy = b.fsub(ez_yp, ez);
            let nhx = b.ffma(dy, Operand::imm_f(-CH), hx);
            b.st_global(hxa, 0, nhx);
            let hya = b.iadd(byte, hyp);
            let hy = b.ld_global(hya, 0);
            let dx = b.fsub(ez_xp, ez);
            let nhy = b.ffma(dx, Operand::imm_f(CH), hy);
            b.st_global(hya, 0, nhy);
        });
        b.build()
    }

    /// The E-update kernel.
    pub fn e_kernel(&self) -> Kernel {
        let n = self.n;
        let mut b = KernelBuilder::new("fdtd_e");
        let (ezp, hxp, hyp) = (b.param(), b.param(), b.param());
        let cell = common::global_tid_x(&mut b);
        let x = b.and(cell, n - 1);
        let y = b.shr(cell, n.trailing_zeros());
        let px = b.setp(CmpOp::Ge, Scalar::U32, x, 1u32);
        let py = b.setp(CmpOp::Ge, Scalar::U32, y, 1u32);
        let inside = b.and(px, py);
        b.if_(Pred::if_true(inside), |b| {
            let byte = b.shl(cell, 2u32);
            let hya = b.iadd(byte, hyp);
            let hy = b.ld_global(hya, 0);
            let hy_xm = b.ld_global(hya, -4);
            let hxa = b.iadd(byte, hxp);
            let hx = b.ld_global(hxa, 0);
            let hx_ym = b.ld_global(hxa, -((n * 4) as i32));
            let curl_hy = b.fsub(hy, hy_xm);
            let curl_hx = b.fsub(hx, hx_ym);
            let curl = b.fsub(curl_hy, curl_hx);
            let eza = b.iadd(byte, ezp);
            let ez = b.ld_global(eza, 0);
            let nez = b.ffma(curl, Operand::imm_f(CE), ez);
            b.st_global(eza, 0, nez);
        });
        b.build()
    }

    /// Runs the full stepped simulation.
    pub fn run(&self, f0: &Fields) -> (Fields, KernelStats, Timeline) {
        let n = self.n;
        assert!(
            n.is_power_of_two() && n >= TPB,
            "grid edge must be a power of two >= the block size"
        );
        let words = (n * n) as usize;
        let mut dev = Device::new(3 * n * n * 4 + 4096);
        let dez = dev.alloc::<f32>(words);
        let dhx = dev.alloc::<f32>(words);
        let dhy = dev.alloc::<f32>(words);
        dev.copy_to_device(&dez, &f0.ez);
        dev.copy_to_device(&dhx, &f0.hx);
        dev.copy_to_device(&dhy, &f0.hy);

        let hk = self.h_kernel();
        let ek = self.e_kernel();
        let params = [dez.as_param(), dhx.as_param(), dhy.as_param()];
        let grid = (n * n / TPB, 1);
        let mut agg: Option<KernelStats> = None;
        for _ in 0..self.steps {
            for k in [&hk, &ek] {
                let stats = dev
                    .launch(k, grid, (TPB, 1, 1), &params)
                    .expect("fdtd launch");
                match &mut agg {
                    None => agg = Some(stats),
                    Some(a) => a.accumulate(&stats),
                }
            }
        }
        let out = Fields {
            ez: dev.copy_from_device(&dez),
            hx: dev.copy_from_device(&dhx),
            hy: dev.copy_from_device(&dhy),
        };
        (out, agg.unwrap(), dev.timeline())
    }

    /// Table 2/3 record.
    pub fn report(&self) -> AppReport {
        let f0 = self.initial_state();
        let want = self.cpu_reference(&f0);
        let (got, stats, timeline) = self.run(&f0);
        let err = common::rms_rel_error(&got.ez, &want.ez)
            .max(common::rms_rel_error(&got.hx, &want.hx))
            .max(common::rms_rel_error(&got.hy, &want.hy));
        AppReport {
            name: "FDTD",
            description: "Finite-difference time-domain EM wave propagation",
            stats,
            timeline,
            cpu_kernel_s: CpuModel::opteron_248().time(&self.cpu_work(), CpuTuning::SimdFastMath),
            // Table 2: "FDTD's kernel takes only 16.4% of execution time,
            // limiting potential application speedup to 1.2X."
            kernel_cpu_fraction: 0.164,
            max_rel_error: err,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference() {
        let f = Fdtd { n: 128, steps: 3 };
        let f0 = f.initial_state();
        let want = f.cpu_reference(&f0);
        let (got, _, _) = f.run(&f0);
        let err = common::rms_rel_error(&got.ez, &want.ez)
            .max(common::rms_rel_error(&got.hx, &want.hx))
            .max(common::rms_rel_error(&got.hy, &want.hy));
        assert!(err < 1e-5, "err {err}");
    }

    #[test]
    fn wave_actually_propagates() {
        let f = Fdtd { n: 128, steps: 6 };
        let f0 = f.initial_state();
        let (got, _, _) = f.run(&f0);
        // Energy must have moved into the H fields.
        let h_energy: f32 = got.hx.iter().chain(&got.hy).map(|v| v * v).sum();
        assert!(h_energy > 1e-3);
    }

    #[test]
    fn bandwidth_bound_like_the_paper_says() {
        let f = Fdtd { n: 256, steps: 2 };
        let f0 = f.initial_state();
        let (_, stats, _) = f.run(&f0);
        assert!(
            stats.bandwidth_gbps() > 0.5 * 86.4,
            "bw {}",
            stats.bandwidth_gbps()
        );
        assert!(stats.global_to_compute_ratio() > 0.8);
    }

    #[test]
    fn amdahl_crushes_app_speedup() {
        let r = Fdtd { n: 256, steps: 4 }.report();
        assert!(r.max_rel_error < 1e-5);
        // Paper: kernel 10.5x, app 1.16x (kernel is 16.4% of the app).
        assert!(r.kernel_speedup() > 3.0, "kernel {}", r.kernel_speedup());
        let app = r.app_speedup();
        assert!(
            (1.0..1.25).contains(&app),
            "app speedup {app} should be Amdahl-limited to ~1.2"
        );
    }
}
