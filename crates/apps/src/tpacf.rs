//! TPACF — the two-point angular correlation function from cosmology.
//!
//! Histograms the angular separation of every pair of points on the sky.
//! The optimized CUDA port (paper Section 5.1: "careful organization of
//! threads and data reduces or eliminates conflicts in shared memory")
//! stages point tiles in shared memory and keeps a *per-thread private*
//! histogram in shared memory, interleaved so that thread `t`'s bins all
//! live in bank `t mod 16` — zero conflicts by construction. Bin boundaries
//! (pre-computed cosines of the angular bin edges) broadcast from constant
//! memory.

use crate::common::{self, AppReport};
use g80_cuda::{CpuModel, CpuTuning, CpuWork, Device, Timeline};
use g80_isa::builder::{KernelBuilder, Unroll};
use g80_isa::Kernel;
use g80_isa::{CmpOp, Operand, Scalar};
use g80_sim::KernelStats;

/// Threads per block (one tile of points per block iteration).
const TPB: u32 = 64;
/// Angular bins.
pub const NBINS: usize = 16;

/// The TPACF workload: `n` points on the unit sphere (multiple of 64).
#[derive(Copy, Clone, Debug)]
pub struct Tpacf {
    pub n: u32,
}

impl Default for Tpacf {
    fn default() -> Self {
        Tpacf { n: 4096 }
    }
}

/// A point set on the sphere plus the bin-edge cosines (ascending).
pub struct SkyData {
    pub x: Vec<f32>,
    pub y: Vec<f32>,
    pub z: Vec<f32>,
    pub edges: [f32; NBINS],
}

impl Tpacf {
    /// Uniform points on the sphere; log-spaced angular bin edges.
    pub fn generate(&self, seed: u64) -> SkyData {
        use rand::Rng;
        let mut r = common::rng(seed);
        let n = self.n as usize;
        let (mut x, mut y, mut z) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..n {
            // Marsaglia sphere sampling.
            loop {
                let a: f32 = r.gen_range(-1.0..1.0);
                let b: f32 = r.gen_range(-1.0..1.0);
                let s = a * a + b * b;
                if s < 1.0 {
                    let t = 2.0 * (1.0 - s).sqrt();
                    x.push(a * t);
                    y.push(b * t);
                    z.push(1.0 - 2.0 * s);
                    break;
                }
            }
        }
        // Edges: cos of angles from ~90° down to ~0.5°, ascending in cos.
        let mut edges = [0.0f32; NBINS];
        for (i, e) in edges.iter_mut().enumerate() {
            let angle_deg = 90.0 * (0.5f32).powf(i as f32 * 0.5);
            *e = (angle_deg.to_radians()).cos();
        }
        SkyData { x, y, z, edges }
    }

    /// Bin index for a dot product: the number of edges below it. Matches
    /// the kernel's comparison chain exactly.
    fn bin(edges: &[f32; NBINS], dot: f32) -> usize {
        edges.iter().filter(|&&e| dot > e).count()
    }

    /// Sequential reference: histogram over all ordered pairs i ≠ j.
    pub fn cpu_reference(&self, d: &SkyData) -> Vec<u32> {
        let n = self.n as usize;
        let mut hist = vec![0u32; NBINS + 1];
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let mut dot = d.x[i] * d.x[j];
                dot += d.y[i] * d.y[j];
                dot += d.z[i] * d.z[j];
                hist[Self::bin(&d.edges, dot)] += 1;
            }
        }
        hist
    }

    /// CPU cost per pair: dot product + compare chain.
    pub fn cpu_work(&self) -> CpuWork {
        let pairs = (self.n as f64).powi(2);
        CpuWork {
            flops: 6.0 * pairs,
            int_ops: (NBINS as f64 + 14.0) * pairs,
            bytes: self.n as f64 * 12.0,
            ..Default::default()
        }
    }

    /// The optimized kernel: point tiles + private histograms in shared
    /// memory, bin edges broadcast from constant memory.
    pub fn kernel(&self) -> Kernel {
        let n = self.n;
        let mut b = KernelBuilder::new("tpacf");
        let (xp, yp, zp, histp) = (b.param(), b.param(), b.param(), b.param());
        // Shared: tile x/y/z (TPB words each) then hist[NBINS][TPB].
        let sx = b.shared_alloc(TPB);
        let sy = b.shared_alloc(TPB);
        let sz = b.shared_alloc(TPB);
        let sh = b.shared_alloc((NBINS as u32 + 1) * TPB); // +1: overflow row
        debug_assert_eq!(sx, 0);

        let tid = b.tid_x();
        let i = common::global_tid_x(&mut b);
        let ibyte = b.shl(i, 2u32);
        let xa = b.iadd(ibyte, xp);
        let my_x = b.ld_global(xa, 0);
        let ya = b.iadd(ibyte, yp);
        let my_y = b.ld_global(ya, 0);
        let za = b.iadd(ibyte, zp);
        let my_z = b.ld_global(za, 0);

        // Zero my private histogram column: hist[bin][tid].
        let tb = b.shl(tid, 2u32);
        b.for_range(0u32, NBINS as u32 + 1, 1, Unroll::Full, |b, bin| {
            let off = (sh + bin.as_imm().unwrap().as_u32() * TPB * 4) as i32;
            b.st_shared(tb, off, Operand::imm_f(0.0));
        });

        // Loop over point tiles.
        let tile_byte = b.shl(tid, 2u32);
        let gsrc = b.mov(Operand::Reg(tile_byte));
        let ntiles = n / TPB;
        let t = b.mov(Operand::imm_u(0));
        b.do_while(|b| {
            // Cooperative tile load (coalesced).
            let gx = b.iadd(gsrc, xp);
            let v = b.ld_global(gx, 0);
            b.st_shared(tile_byte, sx as i32, v);
            let gy = b.iadd(gsrc, yp);
            let v = b.ld_global(gy, 0);
            b.st_shared(tile_byte, sy as i32, v);
            let gz = b.iadd(gsrc, zp);
            let v = b.ld_global(gz, 0);
            b.st_shared(tile_byte, sz as i32, v);
            b.bar();

            // Pair my point against every tile point.
            let jb = b.mov(Operand::imm_u(0));
            let jcount = b.mov(Operand::imm_u(0));
            b.do_while(|b| {
                let jx = b.ld_shared(jb, sx as i32);
                let jy = b.ld_shared(jb, sy as i32);
                let jz = b.ld_shared(jb, sz as i32);
                let dot = b.fmul(my_x, jx);
                b.ffma_to(dot, my_y, jy, dot);
                b.ffma_to(dot, my_z, jz, dot);
                // bin = #edges below dot (constant-memory broadcast chain).
                let bin = b.mov(Operand::imm_u(0));
                b.for_range(0u32, NBINS as u32, 1, Unroll::Full, |b, e| {
                    let off = e.as_imm().unwrap().as_u32() as i32 * 4;
                    let edge = b.ld_const(Operand::imm_u(0), off);
                    let p = b.setp(CmpOp::Gt, Scalar::F32, dot, edge);
                    b.iadd_to(bin, bin, p);
                });
                // Self-pair exclusion: j's global index == my index?
                let jglob = b.imad(t, TPB, jcount);
                let selfp = b.setp(CmpOp::Eq, Scalar::U32, jglob, i);
                let inc = b.sel(selfp, 0u32, 1u32);
                // hist[bin][tid] += inc (my private column: conflict-free).
                let row = b.imul(bin, TPB * 4);
                let slot = b.iadd(row, tb);
                let cur = b.ld_shared(slot, sh as i32);
                let new = b.iadd(cur, inc);
                b.st_shared(slot, sh as i32, new);

                b.iadd_to(jb, jb, 4u32);
                b.iadd_to(jcount, jcount, 1u32);
                let p = b.setp(CmpOp::Lt, Scalar::U32, jcount, TPB);
                g80_isa::Pred::if_true(p)
            });
            b.bar();
            b.iadd_to(gsrc, gsrc, TPB * 4);
            b.iadd_to(t, t, 1u32);
            let p = b.setp(CmpOp::Lt, Scalar::U32, t, ntiles);
            g80_isa::Pred::if_true(p)
        });

        // Merge: thread `bin` (first NBINS threads) sums its row and adds to
        // the global histogram atomically.
        let pbin = b.setp(CmpOp::Lt, Scalar::U32, tid, NBINS as u32 + 1);
        b.if_(g80_isa::Pred::if_true(pbin), |b| {
            let row = b.imul(tid, TPB * 4);
            let sum = b.mov(Operand::imm_u(0));
            let col = b.mov(Operand::imm_u(0));
            b.do_while(|b| {
                let cb = b.shl(col, 2u32);
                let slot = b.iadd(row, cb);
                let v = b.ld_shared(slot, sh as i32);
                b.iadd_to(sum, sum, v);
                b.iadd_to(col, col, 1u32);
                let p = b.setp(CmpOp::Lt, Scalar::U32, col, TPB);
                g80_isa::Pred::if_true(p)
            });
            let hb = b.shl(tid, 2u32);
            let ha = b.iadd(hb, histp);
            b.atom(g80_isa::AtomOp::Add, g80_isa::Space::Global, ha, 0, sum);
        });
        b.build()
    }

    /// Runs on a fresh device; returns the histogram (NBINS+1 slots; the
    /// overflow slot counts pairs closer than the last edge).
    pub fn run(&self, d: &SkyData) -> (Vec<u32>, KernelStats, Timeline) {
        let n = self.n;
        assert!(
            n > 0 && n.is_multiple_of(TPB),
            "point count must be a positive multiple of the tile size"
        );
        let mut dev = Device::new(n * 12 + 4096);
        let dx = dev.alloc::<f32>(n as usize);
        let dy = dev.alloc::<f32>(n as usize);
        let dz = dev.alloc::<f32>(n as usize);
        let dh = dev.alloc::<u32>(NBINS + 1);
        dev.copy_to_device(&dx, &d.x);
        dev.copy_to_device(&dy, &d.y);
        dev.copy_to_device(&dz, &d.z);
        dev.copy_to_device(&dh, &[0u32; NBINS + 1]);
        dev.set_const(&d.edges[..]);

        let k = self.kernel();
        let stats = dev
            .launch(
                &k,
                (n / TPB, 1),
                (TPB, 1, 1),
                &[dx.as_param(), dy.as_param(), dz.as_param(), dh.as_param()],
            )
            .expect("tpacf launch");
        let hist = dev.copy_from_device(&dh);
        (hist, stats, dev.timeline())
    }

    /// Table 2/3 record.
    pub fn report(&self) -> AppReport {
        let d = self.generate(31);
        let want = self.cpu_reference(&d);
        let (got, stats, timeline) = self.run(&d);
        let exact = got == want;
        AppReport {
            name: "TPACF",
            description: "Two-point angular correlation function (cosmology)",
            stats,
            timeline,
            cpu_kernel_s: CpuModel::opteron_248().time(&self.cpu_work(), CpuTuning::SimdFastMath),
            kernel_cpu_fraction: 0.96,
            max_rel_error: if exact { 0.0 } else { 1.0 },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_matches_reference_exactly() {
        let t = Tpacf { n: 512 };
        let d = t.generate(7);
        let want = t.cpu_reference(&d);
        let (got, _, _) = t.run(&d);
        assert_eq!(got, want);
        // Total pairs = n*(n-1).
        let total: u64 = got.iter().map(|&v| v as u64).sum();
        assert_eq!(total, 512 * 511);
    }

    #[test]
    fn private_histograms_are_conflict_free() {
        let t = Tpacf { n: 512 };
        let d = t.generate(8);
        let (_, stats, _) = t.run(&d);
        // The histogram update addressing was designed for bank = tid%16:
        // the only conflicts tolerated are from the (tiny) merge phase.
        let frac = stats.smem_conflict_extra_cycles as f64 / (stats.cycles * 16).max(1) as f64;
        assert!(frac < 0.02, "conflict fraction {frac}");
    }

    #[test]
    fn report_is_in_shape() {
        let r = Tpacf { n: 1024 }.report();
        assert_eq!(r.max_rel_error, 0.0);
        let s = r.kernel_speedup();
        // Paper: 60.2x. Our CPU/GPU pair lands in the tens.
        assert!((8.0..150.0).contains(&s), "speedup {s}");
    }
}
