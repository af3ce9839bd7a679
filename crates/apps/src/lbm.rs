//! LBM — D2Q9 lattice-Boltzmann fluid simulation.
//!
//! The paper's exemplar of two separate phenomena:
//!
//! * **Time-sliced global synchronization** (Section 5.1): every time step
//!   must see the previous step's writes across the whole lattice, and the
//!   only machine-wide barrier is kernel termination — so the host relaunches
//!   the kernel once per step, paying full DRAM traffic each time.
//! * **Access-pattern engineering** (Section 5.2, Figure 5): the natural
//!   array-of-structures layout makes every distribution load a strided,
//!   uncoalesced access; converting to structure-of-arrays coalesces the
//!   straight planes, and staging rows through shared memory (the paper's
//!   "buffering to improve the access pattern") coalesces everything.
//!
//! [`Layout`] exposes all three points on that curve.

#![allow(clippy::needless_range_loop)] // stencil loops index the 9 fixed planes

use crate::common::{self, AppReport};
use g80_cuda::{CpuModel, CpuTuning, CpuWork, Device, Timeline};
use g80_isa::builder::KernelBuilder;
use g80_isa::{CmpOp, Operand, Scalar, SfuOp};
use g80_isa::{Kernel, Pred, Reg};
use g80_sim::KernelStats;

/// D2Q9 stencil: (ex, ey, weight).
const E: [(i32, i32, f32); 9] = [
    (0, 0, 4.0 / 9.0),
    (1, 0, 1.0 / 9.0),
    (0, 1, 1.0 / 9.0),
    (-1, 0, 1.0 / 9.0),
    (0, -1, 1.0 / 9.0),
    (1, 1, 1.0 / 36.0),
    (-1, 1, 1.0 / 36.0),
    (-1, -1, 1.0 / 36.0),
    (1, -1, 1.0 / 36.0),
];
const OMEGA: f32 = 1.2;
const TPB: u32 = 64;

/// Memory layout of the distribution functions (the Figure 5 axis).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Layout {
    /// `f[cell][q]` — every load strided by 9 words: fully uncoalesced.
    Aos,
    /// `f[q][cell]` — straight planes coalesce, x-shifted planes are
    /// misaligned and do not.
    Soa,
    /// `f[q][cell]` with row segments staged through shared memory: fully
    /// coalesced (the paper's buffering optimization).
    SoaStaged,
}

impl Layout {
    pub fn label(&self) -> &'static str {
        match self {
            Layout::Aos => "AoS (uncoalesced)",
            Layout::Soa => "SoA (partially coalesced)",
            Layout::SoaStaged => "SoA + smem staging (coalesced)",
        }
    }
}

/// The LBM workload: an n×n periodic lattice run for `steps` steps.
/// `n` must be a power of two, ≥ 64.
#[derive(Copy, Clone, Debug)]
pub struct Lbm {
    pub n: u32,
    pub steps: u32,
}

impl Default for Lbm {
    fn default() -> Self {
        Lbm { n: 128, steps: 8 }
    }
}

impl Lbm {
    /// Initial distributions: equilibrium at rest plus a smooth density
    /// perturbation.
    pub fn initial_state(&self) -> Vec<f32> {
        let n = self.n as usize;
        let mut f = vec![0.0f32; 9 * n * n];
        for y in 0..n {
            for x in 0..n {
                let rho = 1.0
                    + 0.05
                        * ((x as f32 / n as f32) * std::f32::consts::TAU).sin()
                        * ((y as f32 / n as f32) * std::f32::consts::TAU).cos();
                for (q, &(_, _, w)) in E.iter().enumerate() {
                    f[q * n * n + y * n + x] = w * rho;
                }
            }
        }
        f
    }

    /// One collision at a cell given its nine pulled distributions.
    /// Shared between the CPU reference and (structurally) the kernels.
    fn collide(fin: [f32; 9]) -> [f32; 9] {
        let mut rho = 0.0f32;
        for q in 0..9 {
            rho += fin[q];
        }
        let inv = 1.0 / rho;
        let mut ux = 0.0f32;
        let mut uy = 0.0f32;
        for (q, &(ex, ey, _)) in E.iter().enumerate() {
            ux += fin[q] * ex as f32;
            uy += fin[q] * ey as f32;
        }
        ux *= inv;
        uy *= inv;
        let usq = ux * ux + uy * uy;
        let mut out = [0.0f32; 9];
        for (q, &(ex, ey, w)) in E.iter().enumerate() {
            let eu = ex as f32 * ux + ey as f32 * uy;
            let feq = w * rho * (1.0 + 3.0 * eu + 4.5 * eu * eu - 1.5 * usq);
            out[q] = fin[q] + OMEGA * (feq - fin[q]);
        }
        out
    }

    /// Sequential reference in SoA layout.
    pub fn cpu_reference(&self, f0: &[f32]) -> Vec<f32> {
        let n = self.n as usize;
        let plane = n * n;
        let mut src = f0.to_vec();
        let mut dst = vec![0.0f32; 9 * plane];
        for _ in 0..self.steps {
            for y in 0..n {
                for x in 0..n {
                    let mut fin = [0.0f32; 9];
                    for (q, &(ex, ey, _)) in E.iter().enumerate() {
                        let xs = (x as i32 - ex).rem_euclid(n as i32) as usize;
                        let ys = (y as i32 - ey).rem_euclid(n as i32) as usize;
                        fin[q] = src[q * plane + ys * n + xs];
                    }
                    let out = Self::collide(fin);
                    for (q, &o) in out.iter().enumerate() {
                        dst[q * plane + y * n + x] = o;
                    }
                }
            }
            std::mem::swap(&mut src, &mut dst);
        }
        src
    }

    /// CPU cost per cell-step: ~70 FLOPs, one divide, 20 words of traffic.
    pub fn cpu_work(&self) -> CpuWork {
        let cells = (self.n as f64).powi(2) * self.steps as f64;
        CpuWork {
            flops: 70.0 * cells,
            trig_ops: cells, // the divide
            bytes: 18.0 * 4.0 * cells,
            int_ops: 30.0 * cells,
        }
    }

    /// Emits the collision sequence given the nine loaded distributions;
    /// returns the nine post-collision registers.
    fn emit_collision(b: &mut KernelBuilder, fin: &[Reg; 9]) -> [Reg; 9] {
        let rho = b.mov(Operand::imm_f(0.0));
        for q in 0..9 {
            b.fadd_to(rho, rho, fin[q]);
        }
        let inv = b.sfu(SfuOp::Rcp, rho);
        let ux = b.mov(Operand::imm_f(0.0));
        let uy = b.mov(Operand::imm_f(0.0));
        for (q, &(ex, ey, _)) in E.iter().enumerate() {
            if ex != 0 {
                b.ffma_to(ux, fin[q], Operand::imm_f(ex as f32), ux);
            }
            if ey != 0 {
                b.ffma_to(uy, fin[q], Operand::imm_f(ey as f32), uy);
            }
        }
        let uxn = b.fmul(ux, inv);
        let uyn = b.fmul(uy, inv);
        let ux2 = b.fmul(uxn, uxn);
        let usq = b.ffma(uyn, uyn, ux2);
        let mut out = [fin[0]; 9];
        for (q, &(ex, ey, w)) in E.iter().enumerate() {
            // eu = ex*ux + ey*uy, with zero terms elided.
            let eu = match (ex, ey) {
                (0, 0) => None,
                (_, 0) => Some(b.fmul(uxn, Operand::imm_f(ex as f32))),
                (0, _) => Some(b.fmul(uyn, Operand::imm_f(ey as f32))),
                _ => {
                    let t = b.fmul(uxn, Operand::imm_f(ex as f32));
                    Some(b.ffma(uyn, Operand::imm_f(ey as f32), t))
                }
            };
            let inner = match eu {
                None => b.ffma(usq, Operand::imm_f(-1.5), Operand::imm_f(1.0)),
                Some(eu) => {
                    let t = b.ffma(eu, Operand::imm_f(3.0), Operand::imm_f(1.0));
                    let eu2 = b.fmul(eu, eu);
                    let t = b.ffma(eu2, Operand::imm_f(4.5), t);
                    b.ffma(usq, Operand::imm_f(-1.5), t)
                }
            };
            let wrho = b.fmul(rho, Operand::imm_f(w));
            let feq = b.fmul(wrho, inner);
            let diff = b.fsub(feq, fin[q]);
            out[q] = b.ffma(diff, Operand::imm_f(OMEGA), fin[q]);
        }
        out
    }

    /// Builds the one-step kernel for a layout.
    pub fn kernel(&self, layout: Layout) -> Kernel {
        let n = self.n;
        assert!(n.is_power_of_two() && n >= TPB);
        let plane = n * n;
        let mut b = KernelBuilder::new(match layout {
            Layout::Aos => "lbm_aos",
            Layout::Soa => "lbm_soa",
            Layout::SoaStaged => "lbm_soa_staged",
        });
        let (srcp, dstp) = (b.param(), b.param());
        let cell = common::global_tid_x(&mut b);
        let x = b.and(cell, n - 1);
        let y = b.shr(cell, n.trailing_zeros());

        // Wrapped neighbour coordinates.
        let wrap = |b: &mut KernelBuilder, v: Reg, delta: i32| -> Reg {
            // v' = (v + n + delta) & (n-1) — n is a power of two.
            let t = b.iadd(v, (n as i32 + delta) as u32);
            b.and(t, n - 1)
        };

        let mut fin = [cell; 9]; // placeholder registers, overwritten below
        let log2n = n.trailing_zeros();
        match layout {
            Layout::Aos => {
                // Address: (cell' * 9 + q) * 4, cell' = ys*n + xs.
                for (q, &(ex, ey, _)) in E.iter().enumerate() {
                    let xs = wrap(&mut b, x, -ex);
                    let ys = wrap(&mut b, y, -ey);
                    let row = b.shl(ys, log2n);
                    let c = b.iadd(row, xs);
                    // c*9 = c*8 + c (strength-reduced, like nvcc would).
                    let c8 = b.shl(c, 3u32);
                    let w9 = b.iadd(c8, c);
                    let byte = b.shl(w9, 2u32);
                    let a = b.iadd(byte, srcp);
                    fin[q] = b.ld_global(a, (q * 4) as i32);
                }
            }
            Layout::Soa => {
                // Address: (q*plane + ys*n + xs) * 4.
                for (q, &(ex, ey, _)) in E.iter().enumerate() {
                    let xs = wrap(&mut b, x, -ex);
                    let ys = wrap(&mut b, y, -ey);
                    let row = b.shl(ys, log2n);
                    let c = b.iadd(row, xs);
                    let byte = b.shl(c, 2u32);
                    let a = b.iadd(byte, srcp);
                    fin[q] = b.ld_global(a, (q as i32) * plane as i32 * 4);
                }
            }
            Layout::SoaStaged => {
                // Each block covers TPB consecutive cells of one row. Stage
                // every plane's row segment (one-word halo each side) into
                // shared memory, synchronize once, then read. Halo loads are
                // one combined pass over threads 0..17 (plane = tid/2) using
                // a constant-memory table of row deltas.
                let seg = TPB + 2;
                let smem = b.shared_alloc(9 * seg);
                let tid = b.tid_x();
                let x0 = b.isub(x, tid); // segment start (uniform)
                let stb = b.shl(tid, 2u32);
                // Main segment loads: coalesced and aligned.
                for (q, &(_, ey, _)) in E.iter().enumerate() {
                    let base = (smem + q as u32 * seg * 4) as i32;
                    let ys = wrap(&mut b, y, -ey);
                    let row = b.shl(ys, log2n);
                    let cmain = b.iadd(row, x);
                    let bmain = b.shl(cmain, 2u32);
                    let amain = b.iadd(bmain, srcp);
                    let v = b.ld_global(amain, (q as i32) * plane as i32 * 4);
                    b.st_shared(stb, base + 4, v);
                }
                // Halo pass: thread 2q loads the left halo of plane q,
                // thread 2q+1 the right halo. Const bank: [n - ey_q; 9].
                let xl = wrap(&mut b, x0, -1);
                let xr = wrap(&mut b, x0, TPB as i32);
                let ph = b.setp(CmpOp::Lt, Scalar::U32, tid, 18u32);
                b.if_(Pred::if_true(ph), |b| {
                    let q = b.shr(tid, 1u32);
                    let side = b.and(tid, 1u32);
                    let qoff = b.shl(q, 2u32);
                    let cval = b.ld_const(qoff, 0); // n - ey
                    let ysum = b.iadd(y, cval);
                    let ys = b.and(ysum, n - 1);
                    let row = b.shl(ys, log2n);
                    let xs = b.sel(side, xr, xl);
                    let c = b.iadd(row, xs);
                    let byte = b.shl(c, 2u32);
                    let a0 = b.iadd(byte, srcp);
                    let poff = b.shl(q, plane.trailing_zeros() + 2);
                    let a = b.iadd(a0, poff);
                    let v = b.ld_global(a, 0);
                    let soff = b.imul(q, seg * 4);
                    let sslot = b.imad(side, (TPB + 1) * 4, soff);
                    b.st_shared(sslot, smem as i32, v);
                });
                b.bar();
                // Read phase: segment[1 + tid - ex] — the shift folds into
                // the load offset, so this is nine bare ld.shared ops.
                for (q, &(ex, _, _)) in E.iter().enumerate() {
                    let base = (smem + q as u32 * seg * 4) as i32;
                    fin[q] = b.ld_shared(stb, base + (1 - ex) * 4);
                }
            }
        }

        let out = Self::emit_collision(&mut b, &fin);

        // Store to own cell (coalesced for SoA layouts, strided for AoS).
        match layout {
            Layout::Aos => {
                let w9 = b.imul(cell, 9u32);
                let byte = b.shl(w9, 2u32);
                let a = b.iadd(byte, dstp);
                for (q, &o) in out.iter().enumerate() {
                    b.st_global(a, (q * 4) as i32, o);
                }
            }
            Layout::Soa | Layout::SoaStaged => {
                let byte = b.shl(cell, 2u32);
                let a = b.iadd(byte, dstp);
                for (q, &o) in out.iter().enumerate() {
                    b.st_global(a, (q as i32) * plane as i32 * 4, o);
                }
            }
        }
        b.build()
    }

    /// Converts SoA data to the requested device layout.
    fn soa_to_layout(&self, f: &[f32], layout: Layout) -> Vec<f32> {
        match layout {
            Layout::Soa | Layout::SoaStaged => f.to_vec(),
            Layout::Aos => {
                let plane = (self.n * self.n) as usize;
                let mut out = vec![0.0f32; f.len()];
                for q in 0..9 {
                    for c in 0..plane {
                        out[c * 9 + q] = f[q * plane + c];
                    }
                }
                out
            }
        }
    }

    fn layout_to_soa(&self, f: &[f32], layout: Layout) -> Vec<f32> {
        match layout {
            Layout::Soa | Layout::SoaStaged => f.to_vec(),
            Layout::Aos => {
                let plane = (self.n * self.n) as usize;
                let mut out = vec![0.0f32; f.len()];
                for q in 0..9 {
                    for c in 0..plane {
                        out[q * plane + c] = f[c * 9 + q];
                    }
                }
                out
            }
        }
    }

    /// Runs `steps` time steps (one kernel launch per step — the global
    /// synchronization pattern). Returns final state in SoA layout plus the
    /// *aggregate* stats of all launches.
    pub fn run(&self, f0: &[f32], layout: Layout) -> (Vec<f32>, KernelStats, Timeline) {
        let n = self.n;
        let words = 9 * n * n;
        let mut dev = Device::new(2 * words * 4 + 4096);
        let da = dev.alloc::<f32>(words as usize);
        let db = dev.alloc::<f32>(words as usize);
        dev.copy_to_device(&da, &self.soa_to_layout(f0, layout));
        // Row-delta table for the staged halo pass: n - ey per plane.
        let deltas: Vec<u32> = E.iter().map(|&(_, ey, _)| (n as i32 - ey) as u32).collect();
        dev.set_const(&deltas);

        let k = self.kernel(layout);
        let mut bufs = [&da, &db];
        let mut agg: Option<KernelStats> = None;
        for _ in 0..self.steps {
            let stats = dev
                .launch(
                    &k,
                    (n * n / TPB, 1),
                    (TPB, 1, 1),
                    &[bufs[0].as_param(), bufs[1].as_param()],
                )
                .expect("lbm launch");
            agg = Some(match agg {
                None => stats,
                Some(mut a) => {
                    a.accumulate(&stats);
                    a
                }
            });
            bufs.swap(0, 1);
        }
        let raw = dev.copy_from_device(bufs[0]);
        (
            self.layout_to_soa(&raw, layout),
            agg.unwrap(),
            dev.timeline(),
        )
    }

    /// Table 2/3 record (uses the fully optimized layout).
    pub fn report(&self) -> AppReport {
        let f0 = self.initial_state();
        let want = self.cpu_reference(&f0);
        let (got, stats, timeline) = self.run(&f0, Layout::SoaStaged);
        AppReport {
            name: "LBM",
            description: "Lattice-Boltzmann fluid dynamics (D2Q9, time-sliced)",
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

    fn small() -> Lbm {
        Lbm { n: 64, steps: 3 }
    }

    #[test]
    fn all_layouts_match_reference() {
        let l = small();
        let f0 = l.initial_state();
        let want = l.cpu_reference(&f0);
        for layout in [Layout::Aos, Layout::Soa, Layout::SoaStaged] {
            let (got, _, _) = l.run(&f0, layout);
            let err = common::rms_rel_error(&got, &want);
            assert!(err < 1e-4, "{}: err {err}", layout.label());
        }
    }

    #[test]
    fn mass_is_conserved() {
        let l = small();
        let f0 = l.initial_state();
        let (got, _, _) = l.run(&f0, Layout::SoaStaged);
        let m0: f64 = f0.iter().map(|&v| v as f64).sum();
        let m1: f64 = got.iter().map(|&v| v as f64).sum();
        assert!((m0 - m1).abs() / m0 < 1e-5);
    }

    #[test]
    fn figure5_coalescing_gradient() {
        // AoS: everything uncoalesced. SoA: straight planes coalesce.
        // Staged: everything coalesces.
        let l = small();
        let f0 = l.initial_state();
        let (_, aos, _) = l.run(&f0, Layout::Aos);
        let (_, soa, _) = l.run(&f0, Layout::Soa);
        let (_, staged, _) = l.run(&f0, Layout::SoaStaged);
        assert!(aos.coalesced_fraction() < 0.01);
        assert!(soa.coalesced_fraction() > 0.3 && soa.coalesced_fraction() < 0.9);
        // The staged variant's only uncoalesced accesses are the two
        // single-lane halo loads per plane (1 transaction each — cheap, but
        // the CC1.0 rule still classifies a lone lane as uncoalesced).
        assert!(staged.coalesced_fraction() > 0.75);
        // And the bytes ordering follows (AoS moves ~2x SoA: 18 scattered
        // accesses/cell vs 6 scattered + 12 coalesced).
        assert!(aos.global_bytes >= 19 * soa.global_bytes / 10);
        assert!(soa.global_bytes > staged.global_bytes);
        // Which is the performance ordering.
        assert!(aos.cycles > soa.cycles);
        assert!(soa.cycles > staged.cycles);
    }

    #[test]
    fn report_speedup_is_memory_bound_tier() {
        let r = Lbm { n: 128, steps: 4 }.report();
        assert!(r.max_rel_error < 1e-4);
        // Paper: 12.5x kernel. Memory-bound tier: low double digits.
        let s = r.kernel_speedup();
        assert!((4.0..40.0).contains(&s), "speedup {s}");
    }
}
