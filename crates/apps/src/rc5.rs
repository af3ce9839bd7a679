//! RC5-72 — the distributed.net RC5-32/12/9 key-search kernel.
//!
//! Each thread expands one candidate 72-bit key and trial-encrypts a known
//! plaintext block. Everything lives in registers (the mixing schedule is
//! fully unrolled so the 26-entry S table has constant indices), making this
//! a pure integer-throughput benchmark. The paper's Section 5.1 notes the
//! G80's missing *modulus-shift* (rotate): every RC5 rotate costs four
//! instructions (`shl`/`sub`/`shr`/`or`); the `native_rotate` ablation
//! quantifies what the missing instruction costs.

use crate::common::{self, AppReport};
use g80_cuda::{CpuTuning, CpuWork, Device, Timeline};
use g80_isa::builder::KernelBuilder;
use g80_isa::{AluOp, Operand};
use g80_isa::{Kernel, Reg};
use g80_sim::KernelStats;

const P32: u32 = 0xB7E1_5163;
const Q32: u32 = 0x9E37_79B9;
const ROUNDS: usize = 12;
const T: usize = 2 * (ROUNDS + 1); // 26
const C: usize = 3; // ceil(9 bytes / 4)

/// The key-search workload: `n_keys` sequential candidate keys starting at
/// `base_key` (low 64 bits; the 9th key byte is fixed).
#[derive(Copy, Clone, Debug)]
pub struct Rc5 {
    pub n_keys: u32,
    pub base_key: u64,
    pub plaintext: (u32, u32),
}

impl Default for Rc5 {
    fn default() -> Self {
        Rc5 {
            n_keys: 1 << 16,
            base_key: 0x1234_5678_9abc_def0,
            plaintext: (0x2007_0220, 0x0808_0808),
        }
    }
}

/// Host-side RC5-32/12 with a 9-byte key (low word, high word, top byte).
pub fn rc5_encrypt(key: (u32, u32, u32), pt: (u32, u32)) -> (u32, u32) {
    let mut l = [key.0, key.1, key.2 & 0xff];
    let mut s = [0u32; T];
    s[0] = P32;
    for i in 1..T {
        s[i] = s[i - 1].wrapping_add(Q32);
    }
    let (mut a, mut b) = (0u32, 0u32);
    let (mut i, mut j) = (0usize, 0usize);
    for _ in 0..3 * T {
        a = s[i].wrapping_add(a).wrapping_add(b).rotate_left(3);
        s[i] = a;
        let ab = a.wrapping_add(b);
        b = l[j].wrapping_add(ab).rotate_left(ab & 31);
        l[j] = b;
        i = (i + 1) % T;
        j = (j + 1) % C;
    }
    let mut x = pt.0.wrapping_add(s[0]);
    let mut y = pt.1.wrapping_add(s[1]);
    for r in 1..=ROUNDS {
        x = (x ^ y).rotate_left(y & 31).wrapping_add(s[2 * r]);
        y = (y ^ x).rotate_left(x & 31).wrapping_add(s[2 * r + 1]);
    }
    (x, y)
}

impl Rc5 {
    fn key_for(&self, idx: u32) -> (u32, u32, u32) {
        let k = self.base_key.wrapping_add(idx as u64);
        (k as u32, (k >> 32) as u32, 0x5a)
    }

    /// Sequential reference: ciphertexts for every candidate key.
    pub fn cpu_reference(&self) -> Vec<(u32, u32)> {
        (0..self.n_keys)
            .map(|i| rc5_encrypt(self.key_for(i), self.plaintext))
            .collect()
    }

    /// CPU cost per key: x86 has a native rotate, so ~6 integer ops per
    /// mixing round and ~8 per cipher half-round.
    pub fn cpu_work(&self) -> CpuWork {
        let per_key = (3 * T) as f64 * 6.0 + ROUNDS as f64 * 16.0 + 20.0;
        CpuWork {
            int_ops: per_key * self.n_keys as f64,
            bytes: self.n_keys as f64 * 8.0,
            ..Default::default()
        }
    }

    /// Builds the fully-unrolled key-search kernel.
    pub fn kernel(&self, native_rotate: bool) -> Kernel {
        let mut b = KernelBuilder::new(if native_rotate {
            "rc5_native_rot"
        } else {
            "rc5"
        });
        let outp = b.param();
        let gtid = common::global_tid_x(&mut b);

        // rotl(x, s) — 1 instruction native, 4 emulated.
        let rotl = |b: &mut KernelBuilder, x: Reg, s: Operand| -> Reg {
            if native_rotate {
                b.alu(AluOp::Rotl, x, s)
            } else {
                let hi = b.shl(x, s);
                let inv = b.isub(0u32, s);
                let lo = b.shr(x, inv);
                b.or(hi, lo)
            }
        };

        // Candidate key: low word = base_lo + gtid (carry into the high word
        // is out of range for our key counts and is asserted on the host).
        let l0 = b.iadd(gtid, (self.base_key as u32).wrapping_sub(0));
        let l = [
            l0,
            b.mov(Operand::imm_u((self.base_key >> 32) as u32)),
            b.mov(Operand::imm_u(0x5a)),
        ];

        // S initialisation is compile-time constant.
        let mut s: Vec<Reg> = Vec::with_capacity(T);
        let mut sv = P32;
        for _ in 0..T {
            s.push(b.mov(Operand::imm_u(sv)));
            sv = sv.wrapping_add(Q32);
        }

        // Mixing, fully unrolled (constant S/L indices -> registers).
        let a = b.mov(Operand::imm_u(0));
        let bb = b.mov(Operand::imm_u(0));
        let (mut i, mut j) = (0usize, 0usize);
        for _ in 0..3 * T {
            let t1 = b.iadd(s[i], a);
            let t2 = b.iadd(t1, bb);
            let na = rotl(&mut b, t2, Operand::imm_u(3));
            b.mov_to(s[i], na);
            b.mov_to(a, na);
            let ab = b.iadd(a, bb);
            let t3 = b.iadd(l[j], ab);
            let nb = rotl(&mut b, t3, ab.into());
            b.mov_to(l[j], nb);
            b.mov_to(bb, nb);
            i = (i + 1) % T;
            j = (j + 1) % C;
        }

        // Encryption.
        let x = b.iadd(self.plaintext.0, s[0]);
        let y = b.iadd(self.plaintext.1, s[1]);
        for r in 1..=ROUNDS {
            let t = b.xor(x, y);
            let rx = rotl(&mut b, t, y.into());
            let nx = b.iadd(rx, s[2 * r]);
            b.mov_to(x, nx);
            let t = b.xor(y, x);
            let ry = rotl(&mut b, t, x.into());
            let ny = b.iadd(ry, s[2 * r + 1]);
            b.mov_to(y, ny);
        }

        let byte = b.shl(gtid, 3u32); // 2 words per thread
        let oa = b.iadd(byte, outp);
        b.st_global(oa, 0, x);
        b.st_global(oa, 4, y);
        b.build()
    }

    /// Runs the search; returns per-key ciphertexts.
    pub fn run(&self, native_rotate: bool) -> (Vec<(u32, u32)>, KernelStats, Timeline) {
        let n = self.n_keys;
        assert!(
            n > 0 && n.is_multiple_of(64),
            "n_keys must be a positive multiple of 64"
        );
        assert!(
            (self.base_key as u32).checked_add(n - 1).is_some(),
            "key range must not carry into the high word"
        );
        let mut dev = Device::new(n * 8 + 4096);
        let dout = dev.alloc::<u32>((n * 2) as usize);
        let k = self.kernel(native_rotate);
        let tpb = 64u32;
        let stats = dev
            .launch(&k, (n / tpb, 1), (tpb, 1, 1), &[dout.as_param()])
            .expect("rc5 launch");
        let raw = dev.copy_from_device(&dout);
        let cts = raw.chunks(2).map(|c| (c[0], c[1])).collect();
        (cts, stats, dev.timeline())
    }

    /// Table 2/3 record.
    pub fn report(&self) -> AppReport {
        let want = self.cpu_reference();
        let (got, stats, timeline) = self.run(false);
        let errors = got.iter().zip(&want).filter(|(g, w)| g != w).count();
        AppReport {
            name: "RC5-72",
            description: "distributed.net RC5-72 key search",
            stats,
            timeline,
            cpu_kernel_s: g80_cuda::CpuModel::opteron_248()
                .time(&self.cpu_work(), CpuTuning::SimdFastMath),
            kernel_cpu_fraction: 0.999,
            max_rel_error: if errors == 0 { 0.0 } else { 1.0 },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_rc5_is_self_consistent() {
        // Different keys produce different ciphertexts; same key, same ct.
        let a = rc5_encrypt((1, 2, 3), (10, 20));
        let b = rc5_encrypt((1, 2, 3), (10, 20));
        let c = rc5_encrypt((2, 2, 3), (10, 20));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn gpu_matches_reference_emulated_and_native() {
        let rc5 = Rc5 {
            n_keys: 512,
            ..Default::default()
        };
        let want = rc5.cpu_reference();
        for native in [false, true] {
            let (got, _, _) = rc5.run(native);
            assert_eq!(got, want, "native_rotate={native}");
        }
    }

    #[test]
    fn emulated_rotate_costs_instructions() {
        let rc5 = Rc5 {
            n_keys: 2048,
            ..Default::default()
        };
        let (_, emu, _) = rc5.run(false);
        let (_, nat, _) = rc5.run(true);
        // Section 5.1: performance with a native modulus-shift "is estimated
        // to be several times higher" — our unrolled variant recovers the
        // rotate-emulation overhead exactly.
        assert!(
            emu.cycles as f64 > 1.4 * nat.cycles as f64,
            "emulated {} vs native {}",
            emu.cycles,
            nat.cycles
        );
        assert!(emu.warp_instructions > nat.warp_instructions);
    }

    #[test]
    fn report_speedup_in_paper_range() {
        let r = Rc5 {
            n_keys: 1 << 14,
            ..Default::default()
        }
        .report();
        assert_eq!(r.max_rel_error, 0.0);
        // Paper: 17.1x kernel speedup for RC5-72.
        let s = r.kernel_speedup();
        assert!((5.0..60.0).contains(&s), "speedup {s}");
    }
}
