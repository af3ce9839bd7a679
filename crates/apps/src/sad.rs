//! SAD — H.264 full-search motion estimation (sums of absolute differences).
//!
//! The paper's H.264 entry isolates the motion-estimation kernel: for every
//! 16×16 macroblock of the current frame, compute the SAD against the
//! reference frame at every displacement in a ±8 search window. Two of the
//! paper's observations live here:
//!
//! * **Texture memory**: the reference-frame reads of neighbouring
//!   candidates overlap heavily but never coalesce; fetching through the
//!   texture cache "improves kernel performance by 2.8X over global-only
//!   access" (Section 5.2). [`SadApp::run`] takes the memory path as a
//!   parameter to reproduce that experiment.
//! * **Transfer domination**: frames stream across PCIe for a kernel that
//!   does little arithmetic per byte — H.264 "spends more time in data
//!   transfer than GPU execution" (Table 3).

use crate::common::{self, AppReport};
use g80_cuda::{CpuModel, CpuTuning, CpuWork, Device, Timeline};
use g80_isa::builder::{KernelBuilder, Unroll};
use g80_isa::{AluOp, Operand};
use g80_isa::{Kernel, Space};
use g80_sim::KernelStats;

/// Macroblock edge.
const MB: u32 = 16;
/// Search range: displacements in [-8, +8].
const RANGE: u32 = 8;
/// Candidates per dimension (17) and per macroblock (289).
const CAND: u32 = 2 * RANGE + 1;

/// The SAD workload: a W×H luma frame (multiples of 16).
#[derive(Copy, Clone, Debug)]
pub struct SadApp {
    pub width: u32,
    pub height: u32,
}

impl Default for SadApp {
    fn default() -> Self {
        SadApp {
            width: 176,
            height: 144,
        } // QCIF
    }
}

impl SadApp {
    fn mbs(&self) -> (u32, u32) {
        (self.width / MB, self.height / MB)
    }

    /// Generates a correlated pair of frames (reference = current shifted
    /// with noise, so the search has real structure).
    pub fn generate(&self, seed: u64) -> (Vec<u32>, Vec<u32>) {
        use rand::Rng;
        let mut r = common::rng(seed);
        let (w, h) = (self.width as usize, self.height as usize);
        let mut cur = vec![0u32; w * h];
        for y in 0..h {
            for x in 0..w {
                let v = 128.0
                    + 80.0 * ((x as f32) * 0.07).sin() * ((y as f32) * 0.05).cos()
                    + r.gen_range(-10.0..10.0);
                cur[y * w + x] = v.clamp(0.0, 255.0) as u32;
            }
        }
        let (dx, dy) = (3i32, -2i32);
        let mut reff = vec![0u32; w * h];
        for y in 0..h {
            for x in 0..w {
                let sx = (x as i32 + dx).clamp(0, w as i32 - 1) as usize;
                let sy = (y as i32 + dy).clamp(0, h as i32 - 1) as usize;
                let noise: i32 = r.gen_range(-3..4);
                reff[y * w + x] = (cur[sy * w + sx] as i32 + noise).clamp(0, 255) as u32;
            }
        }
        (cur, reff)
    }

    /// Sequential reference: `sad[mb][cand]` with clamped borders.
    pub fn cpu_reference(&self, cur: &[u32], reff: &[u32]) -> Vec<u32> {
        let (w, h) = (self.width as i32, self.height as i32);
        let (mbx, mby) = self.mbs();
        let mut out = vec![0u32; (mbx * mby * CAND * CAND) as usize];
        for by in 0..mby as i32 {
            for bx in 0..mbx as i32 {
                for cy in 0..CAND as i32 {
                    for cx in 0..CAND as i32 {
                        let (dx, dy) = (cx - RANGE as i32, cy - RANGE as i32);
                        let mut sad = 0u32;
                        for py in 0..MB as i32 {
                            for px in 0..MB as i32 {
                                let x = bx * MB as i32 + px;
                                let y = by * MB as i32 + py;
                                let rx = (x + dx).clamp(0, w - 1);
                                let ry = (y + dy).clamp(0, h - 1);
                                let a = cur[(y * w + x) as usize] as i32;
                                let b = reff[(ry * w + rx) as usize] as i32;
                                sad += (a - b).unsigned_abs();
                            }
                        }
                        let mb = (by * mbx as i32 + bx) as u32;
                        let cand = (cy * CAND as i32 + cx) as u32;
                        out[(mb * CAND * CAND + cand) as usize] = sad;
                    }
                }
            }
        }
        out
    }

    /// CPU cost per pixel-candidate: ~6 integer ops.
    pub fn cpu_work(&self) -> CpuWork {
        let (mbx, mby) = self.mbs();
        let pairs = (mbx * mby * CAND * CAND) as f64 * (MB * MB) as f64;
        CpuWork {
            int_ops: 6.0 * pairs,
            bytes: (self.width * self.height * 8) as f64,
            ..Default::default()
        }
    }

    /// The kernel: one block per macroblock (17×17 threads = one candidate
    /// each); the current macroblock staged in shared memory; reference
    /// pixels through `ref_space` (texture or global — the 2.8× experiment).
    pub fn kernel(&self, ref_space: Space) -> Kernel {
        assert!(matches!(ref_space, Space::Tex | Space::Global));
        let w = self.width;
        let h = self.height;
        let mut b = KernelBuilder::new(if ref_space == Space::Tex {
            "sad_tex"
        } else {
            "sad_global"
        });
        let (curp, refp, outp) = (b.param(), b.param(), b.param());
        let smem = b.shared_alloc(MB * MB);

        let tx = b.tid_x(); // candidate dx index (0..17)
        let ty = b.tid_y(); // candidate dy index
        let bx = b.ctaid_x();
        let by = b.ctaid_y();
        let x0 = b.imul(bx, MB); // macroblock origin
        let y0 = b.imul(by, MB);

        // Stage the current macroblock: linear thread id covers 256 pixels
        // (289 threads; the last 33 sit out).
        let lin = b.imad(ty, CAND, tx);
        let pstage = b.setp(g80_isa::CmpOp::Lt, g80_isa::Scalar::U32, lin, MB * MB);
        b.if_(g80_isa::Pred::if_true(pstage), |b| {
            let px = b.and(lin, MB - 1);
            let py = b.shr(lin, 4u32);
            let gy = b.iadd(y0, py);
            let grow = b.imul(gy, w);
            let gx = b.iadd(x0, px);
            let gidx = b.iadd(grow, gx);
            let gb = b.shl(gidx, 2u32);
            let ga = b.iadd(gb, curp);
            let v = b.ld_global(ga, 0);
            let sb = b.shl(lin, 2u32);
            b.st_shared(sb, smem as i32, v);
        });
        b.bar();

        // My displacement.
        let dx = b.isub(tx, RANGE);
        let dy = b.isub(ty, RANGE);
        let acc = b.mov(Operand::imm_u(0));

        // Row-invariant clamped x coordinate, hoisted out of the pixel loop
        // in byte form (rbx = clamped_x * 4): per inner pixel only the
        // reference load and the SAD arithmetic remain.
        // Outer loop over macroblock rows; the row base (with its costly
        // multiply by the non-power-of-two width) is computed once per row.
        b.for_range(0u32, MB, 1, Unroll::None, |b, py| {
            let gy = b.iadd(y0, py);
            let ry0 = b.iadd(gy, dy);
            let ry1 = b.alu(AluOp::IMax, ry0, 0i32);
            let ry = b.alu(AluOp::IMin, ry1, (h - 1) as i32);
            let row = b.imul(ry, w);
            let prow = b.shl(py, 4u32); // py*16: smem row
            b.for_range(0u32, MB, 1, Unroll::By(4), |b, px| {
                // Current pixel from shared memory (same address for every
                // thread: broadcast).
                let p = b.iadd(prow, px);
                let pb = b.shl(p, 2u32);
                let curv = b.ld_shared(pb, smem as i32);
                // Clamped reference x.
                let gx = b.iadd(x0, px);
                let rx0 = b.iadd(gx, dx);
                let rx1 = b.alu(AluOp::IMax, rx0, 0i32);
                let rx = b.alu(AluOp::IMin, rx1, (w - 1) as i32);
                let ridx = b.iadd(row, rx);
                let rb = b.shl(ridx, 2u32);
                let refv = if ref_space == Space::Tex {
                    b.ld_tex(rb, 0)
                } else {
                    let ra = b.iadd(rb, refp);
                    b.ld_global(ra, 0)
                };
                // |a - b| via max(a-b, b-a).
                let d0 = b.isub(curv, refv);
                let d1 = b.isub(refv, curv);
                let ad = b.alu(AluOp::IMax, d0, d1);
                b.iadd_to(acc, acc, ad);
            });
        });

        // out[mb*289 + cand] = acc.
        let nmbx = self.mbs().0;
        let mb = b.imad(by, nmbx, bx);
        let cand = b.imad(ty, CAND, tx);
        let slot = b.imad(mb, CAND * CAND, cand);
        let ob = b.shl(slot, 2u32);
        let oa = b.iadd(ob, outp);
        b.st_global(oa, 0, acc);
        b.build()
    }

    /// Runs the search; `use_texture` selects the reference-frame path.
    pub fn run(
        &self,
        cur: &[u32],
        reff: &[u32],
        use_texture: bool,
    ) -> (Vec<u32>, KernelStats, Timeline) {
        let (w, h) = (self.width, self.height);
        let (mbx, mby) = self.mbs();
        let nsads = (mbx * mby * CAND * CAND) as usize;
        let mut dev = Device::new(2 * w * h * 4 + nsads as u32 * 4 + 8192);
        let dcur = dev.alloc::<u32>((w * h) as usize);
        let dref = dev.alloc::<u32>((w * h) as usize);
        let dout = dev.alloc::<u32>(nsads);
        dev.copy_to_device(&dcur, cur);
        dev.copy_to_device(&dref, reff);
        dev.bind_texture(&dref);

        let k = self.kernel(if use_texture {
            Space::Tex
        } else {
            Space::Global
        });
        let stats = dev
            .launch(
                &k,
                (mbx, mby),
                (CAND, CAND, 1),
                &[dcur.as_param(), dref.as_param(), dout.as_param()],
            )
            .expect("sad launch");
        let out = dev.copy_from_device(&dout);
        (out, stats, dev.timeline())
    }

    /// Table 2/3 record (texture path).
    pub fn report(&self) -> AppReport {
        let (cur, reff) = self.generate(41);
        let want = self.cpu_reference(&cur, &reff);
        let (got, stats, timeline) = self.run(&cur, &reff, true);
        let exact = got == want;
        AppReport {
            name: "H.264 (SAD)",
            description: "Full-search motion estimation for H.264 encoding",
            stats,
            timeline,
            cpu_kernel_s: CpuModel::opteron_248().time(&self.cpu_work(), CpuTuning::SimdFastMath),
            // Motion estimation is ~35% of a software encoder's time.
            kernel_cpu_fraction: 0.35,
            max_rel_error: if exact { 0.0 } else { 1.0 },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SadApp {
        SadApp {
            width: 64,
            height: 48,
        }
    }

    #[test]
    fn matches_reference_both_paths() {
        let s = tiny();
        let (cur, reff) = s.generate(1);
        let want = s.cpu_reference(&cur, &reff);
        for tex in [false, true] {
            let (got, _, _) = s.run(&cur, &reff, tex);
            assert_eq!(got, want, "texture={tex}");
        }
    }

    #[test]
    fn finds_the_planted_motion() {
        let s = tiny();
        let (cur, reff) = s.generate(2);
        let (sads, _, _) = s.run(&cur, &reff, true);
        // Best motion vector per macroblock (host-side argmin, as H.264 would).
        let vectors: Vec<(i32, i32)> = sads
            .chunks((CAND * CAND) as usize)
            .map(|mb| {
                let best = (0..CAND * CAND).min_by_key(|&c| mb[c as usize]).unwrap();
                (
                    (best % CAND) as i32 - RANGE as i32,
                    (best / CAND) as i32 - RANGE as i32,
                )
            })
            .collect();
        // ref[p] = cur[p + (3, -2)], so the displacement that aligns the
        // macroblock with the reference is the inverse, (-3, 2).
        let hits = vectors.iter().filter(|&&v| v == (-3, 2)).count();
        assert!(
            hits * 2 > vectors.len(),
            "only {hits}/{} macroblocks recovered the motion",
            vectors.len()
        );
    }

    #[test]
    fn texture_beats_global() {
        let s = SadApp::default();
        let (cur, reff) = s.generate(3);
        let (_, glob, _) = s.run(&cur, &reff, false);
        let (_, tex, _) = s.run(&cur, &reff, true);
        // Section 5.2: 2.8x from the texture cache. Require a clear win.
        let gain = glob.cycles as f64 / tex.cycles as f64;
        assert!(gain > 1.5, "texture gain {gain}");
        assert!(tex.tex_hits > 10 * tex.tex_misses);
    }

    #[test]
    fn transfers_are_a_large_cost() {
        let r = tiny().report();
        assert_eq!(r.max_rel_error, 0.0);
        // Table 3 notes H.264 "spends more time in data transfer than GPU
        // execution"; our isolated SAD benchmark moves less data per launch
        // than the full encoder did, but transfers must still be a major
        // cost component (see EXPERIMENTS.md).
        assert!(
            r.timeline.transfer_s() > 0.25 * r.timeline.kernel_s,
            "transfer {} vs kernel {}",
            r.timeline.transfer_s(),
            r.timeline.kernel_s
        );
    }
}
