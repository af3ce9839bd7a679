//! CP — Coulombic Potential grid (ionization placement, from VMD/`cionize`).
//!
//! Computes the electrostatic potential on a 2D slice of a volumetric grid
//! from a set of point charges. The optimized CUDA version keeps the atom
//! list in constant memory (broadcast to every thread, cached on chip),
//! assigns one grid point per thread, and is compute-bound: per atom it is a
//! handful of FMAs plus an `rsqrt` on the SFU. One of the paper's headline
//! performers.

use crate::common::{self, AppReport};
use g80_cuda::{CpuTuning, CpuWork, Device, Timeline};
use g80_isa::builder::{KernelBuilder, Unroll};
use g80_isa::Kernel;
use g80_isa::{Operand, SfuOp, UnOp};
use g80_sim::KernelStats;

/// One point charge.
#[derive(Copy, Clone, Debug)]
pub struct Atom {
    pub x: f32,
    pub y: f32,
    pub z: f32,
    pub q: f32,
}

/// The CP workload: `grid`×`grid` potential slice at z = 0, `n_atoms`
/// charges.
#[derive(Copy, Clone, Debug)]
pub struct CoulombicPotential {
    pub grid: u32,
    pub n_atoms: u32,
    /// Grid spacing in Å.
    pub spacing: f32,
}

impl Default for CoulombicPotential {
    fn default() -> Self {
        CoulombicPotential {
            grid: 256,
            n_atoms: 128,
            spacing: 0.5,
        }
    }
}

impl CoulombicPotential {
    /// Random atoms in the grid volume.
    pub fn generate(&self, seed: u64) -> Vec<Atom> {
        let mut r = common::rng(seed);
        use rand::Rng;
        let extent = self.grid as f32 * self.spacing;
        (0..self.n_atoms)
            .map(|_| Atom {
                x: r.gen_range(0.0..extent),
                y: r.gen_range(0.0..extent),
                z: r.gen_range(0.1..2.0),
                q: r.gen_range(-2.0..2.0),
            })
            .collect()
    }

    /// Sequential reference.
    pub fn cpu_reference(&self, atoms: &[Atom]) -> Vec<f32> {
        let g = self.grid as usize;
        let mut out = vec![0.0f32; g * g];
        for gy in 0..g {
            for gx in 0..g {
                let px = gx as f32 * self.spacing;
                let py = gy as f32 * self.spacing;
                let mut v = 0.0f32;
                for a in atoms {
                    let dx = px - a.x;
                    let dy = py - a.y;
                    let r2 = dx * dx + dy * dy + a.z * a.z;
                    v += a.q * (1.0 / r2.sqrt());
                }
                out[gy * g + gx] = v;
            }
        }
        out
    }

    /// CPU cost: per atom-point pair ~7 FLOPs + one sqrt+div (trig-class).
    pub fn cpu_work(&self) -> CpuWork {
        let pairs = (self.grid as f64).powi(2) * self.n_atoms as f64;
        CpuWork {
            flops: 7.0 * pairs,
            trig_ops: pairs,
            bytes: (self.grid as f64).powi(2) * 4.0,
            int_ops: pairs * 0.5,
        }
    }

    /// The optimized kernel: atoms in constant memory, atom loop fully
    /// unrolled, one grid point per thread (16×16 blocks).
    pub fn kernel(&self, unroll: bool) -> Kernel {
        let mut b = KernelBuilder::new(if unroll { "cp_unrolled" } else { "cp" });
        let outp = b.param();
        let tx = b.tid_x();
        let ty = b.tid_y();
        let bx = b.ctaid_x();
        let by = b.ctaid_y();
        let gx = b.imad(bx, 16u32, tx);
        let gy = b.imad(by, 16u32, ty);
        let fx = b.un(UnOp::CvtU2F, gx);
        let px = b.fmul(fx, self.spacing);
        let fy = b.un(UnOp::CvtU2F, gy);
        let py = b.fmul(fy, self.spacing);
        let acc = b.mov(Operand::imm_f(0.0));

        // Atom record: 4 words (x, y, z2 pre-squared, q) in constant memory.
        let body = |b: &mut KernelBuilder, base: Operand, off: i32| {
            let ax = b.ld_const(base, off);
            let ay = b.ld_const(base, off + 4);
            let az2 = b.ld_const(base, off + 8);
            let aq = b.ld_const(base, off + 12);
            let dx = b.fsub(px, ax);
            let dy = b.fsub(py, ay);
            let r2 = b.ffma(dx, dx, az2);
            let r2 = b.ffma(dy, dy, r2);
            let inv = b.sfu(SfuOp::Rsqrt, r2);
            b.ffma_to(acc, aq, inv, acc);
        };
        if unroll {
            b.for_range(0u32, self.n_atoms, 1, Unroll::Full, |b, i| {
                let off = i.as_imm().unwrap().as_u32() as i32 * 16;
                body(b, Operand::imm_u(0), off);
            });
        } else {
            let base = b.mov(Operand::imm_u(0));
            b.for_range(0u32, self.n_atoms, 1, Unroll::None, |b, _| {
                body(b, Operand::Reg(base), 0);
                b.iadd_to(base, base, 16u32);
            });
        }

        let gw = b.imad(gy, self.grid, gx);
        let byte = b.shl(gw, 2u32);
        let oa = b.iadd(byte, outp);
        b.st_global(oa, 0, acc);
        b.build()
    }

    /// Runs on a fresh device.
    pub fn run(&self, atoms: &[Atom], unroll: bool) -> (Vec<f32>, KernelStats, Timeline) {
        let g = self.grid;
        assert!(
            g > 0 && g.is_multiple_of(16),
            "grid must be a positive multiple of 16"
        );
        let mut dev = Device::new(g * g * 4 + 4096);
        // Pre-square z on the host, as the CUDA port did.
        let cdata: Vec<f32> = atoms
            .iter()
            .flat_map(|a| [a.x, a.y, a.z * a.z, a.q])
            .collect();
        dev.set_const(&cdata);
        let dout = dev.alloc::<f32>((g * g) as usize);
        let k = self.kernel(unroll);
        let stats = dev
            .launch(&k, (g / 16, g / 16), (16, 16, 1), &[dout.as_param()])
            .expect("cp launch");
        let out = dev.copy_from_device(&dout);
        (out, stats, dev.timeline())
    }

    /// Table 2/3 record.
    pub fn report(&self) -> AppReport {
        let atoms = self.generate(5);
        let want = self.cpu_reference(&atoms);
        let (got, stats, timeline) = self.run(&atoms, true);
        AppReport {
            name: "CP",
            description: "Coulombic potential grid for ion placement (VMD)",
            stats,
            timeline,
            cpu_kernel_s: g80_cuda::CpuModel::opteron_248()
                .time(&self.cpu_work(), CpuTuning::SimdFastMath),
            kernel_cpu_fraction: 0.99,
            max_rel_error: common::max_rel_error(&got, &want),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CoulombicPotential {
        CoulombicPotential {
            grid: 64,
            n_atoms: 32,
            spacing: 0.5,
        }
    }

    #[test]
    fn matches_reference() {
        let cp = small();
        let atoms = cp.generate(1);
        let want = cp.cpu_reference(&atoms);
        for unroll in [false, true] {
            let (got, _, _) = cp.run(&atoms, unroll);
            let err = common::max_rel_error(&got, &want);
            assert!(err < 2e-4, "unroll={unroll}: err {err}");
        }
    }

    #[test]
    fn constant_broadcast_hits_cache() {
        let cp = small();
        let atoms = cp.generate(2);
        let (_, stats, _) = cp.run(&atoms, true);
        // All threads read the same atom at the same time: broadcasts.
        assert!(stats.const_hits > 100 * stats.const_misses.max(1));
        // Compute-bound: very low DRAM traffic.
        assert!(stats.global_to_compute_ratio() < 0.2);
    }

    #[test]
    fn unrolling_improves_throughput() {
        let cp = small();
        let atoms = cp.generate(3);
        let (_, rolled, _) = cp.run(&atoms, false);
        let (_, unrolled, _) = cp.run(&atoms, true);
        assert!(unrolled.cycles < rolled.cycles);
    }

    #[test]
    fn report_shows_large_speedup() {
        let r = small().report();
        assert!(r.max_rel_error < 2e-4);
        // Compute-bound with SFU-heavy inner loop: large speedup expected
        // (paper puts CP among the top performers).
        assert!(r.kernel_speedup() > 20.0, "speedup {}", r.kernel_speedup());
    }
}
