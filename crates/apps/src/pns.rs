//! PNS — Petri net simulation.
//!
//! Monte-Carlo simulation of a stochastic Petri net: every thread runs an
//! *independent* replicate with its own RNG, so there is no inter-thread
//! communication at all — the paper notes PNS sidesteps the global-sync
//! problem ("a separate simulation is performed per thread") but is limited
//! by *global memory capacity*, since each replicate streams its trajectory
//! snapshots out to its own slice of DRAM.
//!
//! The net here is a fixed 8-place / 6-transition workflow net baked into
//! the kernel at build time (constant indices ⇒ markings live in
//! registers). Firing choice is `lcg() mod T` with a skip when the chosen
//! transition is disabled — warp-divergent, like the original.

use crate::common::{self, AppReport};
use g80_cuda::{CpuModel, CpuTuning, CpuWork, Device, Timeline};
use g80_isa::builder::KernelBuilder;
use g80_isa::{CmpOp, Operand, Scalar};
use g80_isa::{Kernel, Pred};
use g80_sim::KernelStats;

/// Places and transitions of the fixed net: (input, input, output, output).
const PLACES: usize = 8;
const TRANSITIONS: [(usize, usize, usize, usize); 6] = [
    (0, 1, 2, 3),
    (2, 3, 4, 5),
    (4, 5, 6, 7),
    (6, 7, 0, 1),
    (1, 2, 5, 6),
    (3, 4, 7, 0),
];
/// Initial marking.
const M0: [u32; PLACES] = [3, 2, 1, 1, 0, 2, 1, 0];

const LCG_A: u32 = 1664525;
const LCG_C: u32 = 1013904223;

/// The PNS workload: `n_threads` replicates of `steps` steps each,
/// snapshotting the packed marking every `snap_every` steps.
#[derive(Copy, Clone, Debug)]
pub struct Pns {
    pub n_threads: u32,
    pub steps: u32,
    pub snap_every: u32,
}

impl Default for Pns {
    fn default() -> Self {
        Pns {
            n_threads: 1 << 14,
            steps: 256,
            snap_every: 32,
        }
    }
}

fn pack(m: &[u32; PLACES]) -> u32 {
    m.iter()
        .enumerate()
        .fold(0u32, |acc, (i, &v)| acc | ((v & 0xf) << (4 * i)))
}

impl Pns {
    fn snaps(&self) -> u32 {
        self.steps / self.snap_every
    }

    /// Sequential reference: per-replicate snapshot streams (identical LCG,
    /// so the GPU must match bit-for-bit).
    pub fn cpu_reference(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity((self.n_threads * self.snaps()) as usize);
        for tid in 0..self.n_threads {
            let mut m = M0;
            let mut rng = tid.wrapping_mul(0x9e37_79b9) ^ 0xdead_beef;
            for step in 1..=self.steps {
                rng = rng.wrapping_mul(LCG_A).wrapping_add(LCG_C);
                // Same cheap 0..5 reduction as the kernel: low 3 bits with a
                // conditional fold (slightly non-uniform, identical on both
                // sides).
                let low = (rng >> 8) & 7;
                let t = (if low >= 6 { low - 6 } else { low }) as usize;
                let (i0, i1, o0, o1) = TRANSITIONS[t];
                if m[i0] > 0 && m[i1] > 0 {
                    m[i0] -= 1;
                    m[i1] -= 1;
                    m[o0] += 1;
                    m[o1] += 1;
                }
                if step % self.snap_every == 0 {
                    out.push(pack(&m));
                }
            }
        }
        out
    }

    /// CPU cost per step: RNG + enable test + fire, ~25 integer ops.
    pub fn cpu_work(&self) -> CpuWork {
        let steps = self.n_threads as f64 * self.steps as f64;
        CpuWork {
            int_ops: 25.0 * steps,
            bytes: (self.n_threads * self.snaps()) as f64 * 4.0,
            ..Default::default()
        }
    }

    /// Builds the simulation kernel.
    pub fn kernel(&self) -> Kernel {
        let mut b = KernelBuilder::new("pns");
        let outp = b.param();
        let gtid = common::global_tid_x(&mut b);

        // Marking in registers.
        let m: Vec<_> = M0.iter().map(|&v| b.mov(Operand::imm_u(v))).collect();
        // rng = tid * 0x9e3779b9 ^ 0xdeadbeef
        let h = b.imul(gtid, 0x9e37_79b9u32);
        let rng = b.xor(h, 0xdead_beefu32);

        // Output pointer: replicate-major snapshot stream.
        let snaps = self.snaps();
        let obase = b.imul(gtid, snaps * 4);
        let optr = b.iadd(obase, outp);

        let step = b.mov(Operand::imm_u(0));
        b.do_while(|b| {
            // LCG advance.
            let t1 = b.imul(rng, LCG_A);
            let t2 = b.iadd(t1, LCG_C);
            b.mov_to(rng, t2);
            let bits = b.shr(rng, 8u32);
            // t = bits % 6 == bits - (bits/6)*6 ; division by constant via
            // multiply-high is overkill here — use repeated conditional
            // subtract on the low bits (bits & 7 keeps it in 0..7).
            let low = b.and(bits, 7u32);
            let ge6 = b.setp(CmpOp::Ge, Scalar::U32, low, 6u32);
            let adj = b.sel(ge6, 6u32, 0u32);
            let t = b.isub(low, adj);

            // Dispatch over the six transitions (selected by comparison —
            // each is a divergent region).
            for (ti, &(i0, i1, o0, o1)) in TRANSITIONS.iter().enumerate() {
                let is_t = b.setp(CmpOp::Eq, Scalar::U32, t, ti as u32);
                b.if_(Pred::if_true(is_t), |b| {
                    let e0 = b.setp(CmpOp::Gt, Scalar::U32, m[i0], 0u32);
                    let e1 = b.setp(CmpOp::Gt, Scalar::U32, m[i1], 0u32);
                    let en = b.and(e0, e1);
                    b.if_(Pred::if_true(en), |b| {
                        b.iadd_to(m[i0], m[i0], u32::MAX); // -1
                        b.iadd_to(m[i1], m[i1], u32::MAX);
                        b.iadd_to(m[o0], m[o0], 1u32);
                        b.iadd_to(m[o1], m[o1], 1u32);
                    });
                });
            }

            b.iadd_to(step, step, 1u32);
            // Snapshot every snap_every steps: (step % snap_every) == 0.
            let mask = self.snap_every - 1;
            assert!(self.snap_every.is_power_of_two());
            let rem = b.and(step, mask);
            let snap = b.setp(CmpOp::Eq, Scalar::U32, rem, 0u32);
            b.if_(Pred::if_true(snap), |b| {
                // Pack the marking.
                let acc = b.and(m[0], 0xfu32);
                for (i, &mi) in m.iter().enumerate().skip(1) {
                    let nib = b.and(mi, 0xfu32);
                    let sh = b.shl(nib, (4 * i) as u32);
                    b.alu_to(g80_isa::AluOp::Or, acc, acc, sh);
                }
                b.st_global(optr, 0, acc);
                b.iadd_to(optr, optr, 4u32);
            });
            let p = b.setp(CmpOp::Lt, Scalar::U32, step, self.steps);
            Pred::if_true(p)
        });
        b.build()
    }

    /// Runs on a fresh device; returns all snapshot streams.
    pub fn run(&self) -> (Vec<u32>, KernelStats, Timeline) {
        assert!(
            self.n_threads > 0 && self.n_threads.is_multiple_of(128),
            "n_threads must be a positive multiple of the 128-thread block"
        );
        assert!(
            self.snap_every > 0
                && self.snap_every.is_power_of_two()
                && self.steps >= self.snap_every,
            "snap_every must be a power of two no larger than steps"
        );
        let total = (self.n_threads * self.snaps()) as usize;
        let mut dev = Device::new((total * 4 + 4096) as u32);
        let dout = dev.alloc::<u32>(total);
        let k = self.kernel();
        let stats = dev
            .launch(
                &k,
                (self.n_threads / 128, 1),
                (128, 1, 1),
                &[dout.as_param()],
            )
            .expect("pns launch");
        let out = dev.copy_from_device(&dout);
        (out, stats, dev.timeline())
    }

    /// Table 2/3 record.
    pub fn report(&self) -> AppReport {
        let want = self.cpu_reference();
        let (got, stats, timeline) = self.run();
        let exact = got == want;
        AppReport {
            name: "PNS",
            description: "Stochastic Petri net Monte-Carlo simulation",
            stats,
            timeline,
            cpu_kernel_s: CpuModel::opteron_248().time(&self.cpu_work(), CpuTuning::SimdFastMath),
            kernel_cpu_fraction: 0.98,
            max_rel_error: if exact { 0.0 } else { 1.0 },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_matches_reference_bitwise() {
        let p = Pns {
            n_threads: 512,
            steps: 128,
            snap_every: 32,
        };
        let want = p.cpu_reference();
        let (got, _, _) = p.run();
        assert_eq!(got, want);
    }

    #[test]
    fn transition_dispatch_diverges() {
        let p = Pns {
            n_threads: 1024,
            steps: 64,
            snap_every: 16,
        };
        let (_, stats, _) = p.run();
        // Different lanes pick different transitions every step.
        assert!(stats.divergent_branches > 1000);
    }

    #[test]
    fn tokens_are_conserved() {
        // Every transition consumes 2 and produces 2 tokens.
        let p = Pns {
            n_threads: 128,
            steps: 256,
            snap_every: 256,
        };
        let (got, _, _) = p.run();
        let total0: u32 = M0.iter().sum();
        for &packed in &got {
            let total: u32 = (0..PLACES).map(|i| (packed >> (4 * i)) & 0xf).sum();
            assert_eq!(total, total0);
        }
    }

    #[test]
    fn report_speedup_is_moderate() {
        let r = Pns {
            n_threads: 4096,
            steps: 128,
            snap_every: 32,
        }
        .report();
        assert_eq!(r.max_rel_error, 0.0);
        // Paper: 24.0x kernel. Divergence costs throughput; expect tens.
        let s = r.kernel_speedup();
        assert!((5.0..80.0).contains(&s), "speedup {s}");
    }
}
