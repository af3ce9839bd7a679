//! The other Section 6 future-work item: "We will address the control of
//! register usage in future work."
//!
//! Our toolchain already has the knob (`BuildOptions::max_regs`, the
//! `-maxrregcount` analogue, with real spilling to Local/DRAM). This study
//! sweeps it on a register-hungry kernel and maps the three-way trade the
//! paper describes: more registers per thread ⇒ fewer resident blocks ⇒
//! less latency hiding; fewer registers ⇒ spill traffic to DRAM.

use g80_cuda::{BatchLaunch, Device};
use g80_isa::builder::{BuildOptions, KernelBuilder, Unroll};
use g80_isa::Operand;
use g80_isa::{InstClass, OptLevel};

/// One point of the register-cap sweep.
#[derive(Clone, Debug)]
pub struct RegCapPoint {
    pub cap: Option<u32>,
    pub regs: u32,
    pub blocks_per_sm: u32,
    pub spill_insts: u64,
    pub cycles: u64,
    pub gflops: f64,
}

/// A latency-sensitive kernel holding ~20 values live: each thread keeps a
/// working set of partial sums over a strided global walk.
fn hungry_kernel(cap: Option<u32>) -> g80_isa::Kernel {
    const LIVE: usize = 16;
    let mut b = KernelBuilder::new("hungry");
    let (inp, outp) = (b.param(), b.param());
    let tid = b.tid_x();
    let ntid = b.ntid_x();
    let cta = b.ctaid_x();
    let i = b.imad(cta, ntid, tid);
    let byte = b.shl(i, 2u32);
    let base = b.iadd(byte, inp);

    // LIVE simultaneously-live accumulators, each fed every iteration.
    let accs: Vec<_> = (0..LIVE).map(|k| b.mov(Operand::imm_f(k as f32))).collect();
    b.for_range(0u32, 16u32, 1, Unroll::None, |b, _| {
        let v = b.ld_global(base, 0);
        for (k, &acc) in accs.iter().enumerate() {
            b.ffma_to(acc, v, Operand::imm_f(1.0 + k as f32 * 0.01), acc);
        }
    });
    let mut total = accs[0];
    for &a in &accs[1..] {
        total = b.fadd(total, a);
    }
    let oa = b.iadd(byte, outp);
    b.st_global(oa, 0, total);
    b.build_with(BuildOptions {
        opt: OptLevel::O2,
        max_regs: cap,
    })
}

/// Sweeps the register cap from "uncapped" down — every cap's launch goes
/// down as one batch on the shared worker pool.
pub fn run() -> Vec<RegCapPoint> {
    let natural = hungry_kernel(None).regs_per_thread;
    let mut caps: Vec<Option<u32>> = vec![None];
    for c in [16u32, 12, 10, 8, 6] {
        if c < natural {
            caps.push(Some(c));
        }
    }
    let n = 1u32 << 16;
    let preps: Vec<_> = caps
        .iter()
        .map(|&cap| {
            let k = hungry_kernel(cap);
            let mut dev = Device::new(2 * n * 4 + 4096);
            let din = dev.alloc::<f32>(n as usize);
            let dout = dev.alloc::<f32>(n as usize);
            dev.copy_to_device(&din, &vec![1.0f32; n as usize]);
            let params = [din.as_param(), dout.as_param()];
            (k, dev, params)
        })
        .collect();
    let entries: Vec<BatchLaunch> = preps
        .iter()
        .map(|(k, dev, params)| BatchLaunch {
            device: dev,
            kernel: k,
            grid: (n / 256, 1),
            block: (256, 1, 1),
            params,
        })
        .collect();
    let results = g80_cuda::launch_batch(&entries);
    caps.iter()
        .zip(&preps)
        .zip(results)
        .map(|((&cap, (k, _, _)), r)| {
            let stats = r.expect("regcap launch");
            let mix = k.static_mix();
            RegCapPoint {
                cap,
                regs: k.regs_per_thread,
                blocks_per_sm: stats.blocks_per_sm,
                spill_insts: mix.get(InstClass::LdLocal) + mix.get(InstClass::StLocal),
                cycles: stats.cycles,
                gflops: stats.gflops(),
            }
        })
        .collect()
}

pub fn render(points: &[RegCapPoint]) -> String {
    let mut s = String::new();
    s.push_str("Register-cap study (-maxrregcount analogue): occupancy vs spill\n");
    s.push_str(&format!(
        "{:>6} {:>6} {:>9} {:>12} {:>10} {:>8}\n",
        "cap", "regs", "blocks/SM", "spill insts", "cycles", "GFLOPS"
    ));
    for p in points {
        s.push_str(&format!(
            "{:>6} {:>6} {:>9} {:>12} {:>10} {:>8.2}\n",
            p.cap.map(|c| c.to_string()).unwrap_or_else(|| "-".into()),
            p.regs,
            p.blocks_per_sm,
            p.spill_insts,
            p.cycles,
            p.gflops
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_the_tradeoff() {
        let points = run();
        assert!(points.len() >= 4);
        // Uncapped point: no spills, needs many registers.
        assert_eq!(points[0].spill_insts, 0);
        assert!(points[0].regs >= 16);
        // Capping raises occupancy (blocks/SM) monotonically…
        for w in points.windows(2) {
            assert!(w[1].blocks_per_sm >= w[0].blocks_per_sm);
            assert!(w[1].regs <= w[0].regs);
        }
        // …but the tightest cap pays heavy spill traffic and is slower than
        // the uncapped build.
        let last = points.last().unwrap();
        assert!(last.spill_insts > 10);
        assert!(
            last.cycles > points[0].cycles,
            "extreme spilling should not win: {} vs {}",
            last.cycles,
            points[0].cycles
        );
    }

    #[test]
    fn capped_kernels_compute_the_same_result() {
        // The functional outputs must be identical whatever the cap.
        let run_out = |cap| {
            let k = hungry_kernel(cap);
            let n = 1024u32;
            let mut dev = Device::new(2 * n * 4 + 4096);
            let din = dev.alloc::<f32>(n as usize);
            let dout = dev.alloc::<f32>(n as usize);
            dev.copy_to_device(&din, &vec![2.0f32; n as usize]);
            dev.launch(
                &k,
                (n / 256, 1),
                (256, 1, 1),
                &[din.as_param(), dout.as_param()],
            )
            .unwrap();
            dev.copy_from_device(&dout)
        };
        let unc = run_out(None);
        let capped = run_out(Some(8));
        assert_eq!(unc, capped);
    }
}
