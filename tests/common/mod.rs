//! Shared by the integration-test binaries that `mod common;` it.
#![allow(dead_code, unused_imports)] // each binary uses its own subset

use g80::apps::matmul::{MatMul, Variant};
use g80::cuda::Timeline;
use g80::isa::builder::KernelBuilder;
use g80::isa::{Kernel, Value};
use g80::sim::{
    launch, memo_counters, DeviceMemory, GpuConfig, KernelStats, LaunchDims, LaunchError,
    MemoCounters, SimConfig, SimContext,
};

mod contexts;
pub use contexts::{contexts, scratch_dir};

/// Canonical bytes of a `KernelStats` — what the memo, disk and serve tiers
/// store, so equal bytes means equal in every field and everywhere
/// downstream.
pub fn stats_bytes(stats: &KernelStats) -> Vec<u8> {
    g80::sim::wire::to_bytes(stats, 512)
}

/// Asserts two `KernelStats` equal field for field, bit for bit, naming the
/// public field that differs; the closing byte comparison also covers the
/// machine constants a test cannot name.
pub fn assert_stats_identical(label: &str, a: &KernelStats, b: &KernelStats) {
    macro_rules! fields_eq {
        ($($f:ident),+ $(,)?) => {
            $(assert_eq!(
                a.$f, b.$f,
                "{label}: KernelStats field `{}` differs",
                stringify!($f)
            );)+
        };
    }
    fields_eq![
        name,
        cycles,
        elapsed,
        warp_instructions,
        thread_instructions,
        flops,
        by_class,
        global_ld_transactions,
        global_st_transactions,
        global_bytes,
        coalesced_half_warps,
        uncoalesced_half_warps,
        smem_conflict_extra_cycles,
        divergent_branches,
        tex_hits,
        tex_misses,
        const_hits,
        const_misses,
        atomic_transactions,
        stall_cycles,
        blocks_executed,
        regs_per_thread,
        smem_per_block,
        threads_per_block,
        blocks_per_sm,
        max_simultaneous_threads,
        total_threads,
    ];
    assert_eq!(
        stats_bytes(a),
        stats_bytes(b),
        "{label}: KernelStats bytes differ"
    );
}

pub fn bits(v: &[f32]) -> impl Iterator<Item = u32> + '_ {
    v.iter().map(|x| x.to_bits())
}

/// The cache-probing workload several binaries share: `n` input words at 0,
/// `n` output words right behind them, `out[i] = in[i] * mult + salt` in
/// blocks of 64 threads on the 8800 GTX.
#[derive(Copy, Clone)]
pub struct Scale {
    pub n: u32,
}

impl Scale {
    pub const TPB: u32 = 64;

    /// `name`, `mult` and `salt` land in the kernel's content, so each
    /// triple is a distinct decode and a distinct memo identity.
    pub fn kernel(name: &str, mult: u32, salt: u32) -> Kernel {
        let mut b = KernelBuilder::new(name);
        let xs = b.param();
        let ys = b.param();
        let tid = b.tid_x();
        let ntid = b.ntid_x();
        let cta = b.ctaid_x();
        let i = b.imad(cta, ntid, tid);
        let byte = b.shl(i, 2u32);
        let xa = b.iadd(byte, xs);
        let v = b.ld_global(xa, 0);
        let w = b.imul(v, mult);
        let w = b.iadd(w, salt);
        let ya = b.iadd(byte, ys);
        b.st_global(ya, 0, w);
        b.build()
    }

    pub fn dims(self) -> LaunchDims {
        LaunchDims {
            grid: (self.n / Self::TPB, 1),
            block: (Self::TPB, 1, 1),
        }
    }

    pub fn params(self) -> [Value; 2] {
        [Value::from_u32(0), Value::from_u32(self.n * 4)]
    }

    /// A fresh memory holding the deterministic input.
    pub fn input(self) -> DeviceMemory {
        let mem = DeviceMemory::new(2 * self.n * 4);
        for i in 0..self.n {
            mem.write(i * 4, Value::from_u32(i.wrapping_mul(2654435761)));
        }
        mem
    }

    pub fn try_run(self, k: &Kernel, mem: &DeviceMemory) -> Result<KernelStats, LaunchError> {
        let gpu = GpuConfig::geforce_8800_gtx();
        launch(&gpu, k, self.dims(), &self.params(), mem)
    }

    pub fn run(self, k: &Kernel, mem: &DeviceMemory) -> KernelStats {
        self.try_run(k, mem).expect("launch")
    }

    pub fn output(self, mem: &DeviceMemory) -> Vec<u32> {
        let words = |i| mem.read((self.n + i) * 4).as_u32();
        (0..self.n).map(words).collect()
    }
}

/// One pass over the tuner's sweep: its results in sweep order and its
/// context's memo counters read right after it (the singles have a context
/// of their own, the two batches share one, so the warm batch's counters
/// include the cold one's).
pub struct SweepPass {
    pub runs: Vec<(Vec<f32>, KernelStats, Timeline)>,
    pub counts: MemoCounters,
}

/// A batch is nine single launches: at n=48, `run_batch` of
/// [`Variant::tuner_sweep`] equals nine `run` calls in the canonical stats
/// bytes and in output bits, on an empty memo (cold) and again on the memo
/// the cold batch filled (warm), both in fresh contexts of configuration
/// `cfg`. Returns `[singles, cold, warm]` for the caller's own counter
/// assertions.
pub fn assert_batch_equals_singles(seed: u64, cfg: &SimConfig) -> [SweepPass; 3] {
    let sweep = Variant::tuner_sweep();
    let mm = MatMul { n: 48 };
    let (a, b) = mm.generate(seed);
    let pass = |runs| SweepPass {
        runs,
        counts: memo_counters(),
    };

    let singles = SimContext::new(cfg.clone())
        .enter(|| pass(sweep.iter().map(|&v| mm.run(v, &a, &b)).collect()));
    let (cold, warm) = SimContext::new(cfg.clone()).enter(|| {
        (
            pass(mm.run_batch(&sweep, &a, &b)),
            pass(mm.run_batch(&sweep, &a, &b)),
        )
    });

    for (name, batch) in [("cold", &cold), ("warm", &warm)] {
        assert_eq!(batch.runs.len(), sweep.len(), "{name} batch");
        for ((v, single), batched) in sweep.iter().zip(&singles.runs).zip(&batch.runs) {
            let tag = format!("{name} batch, {}", v.label());
            assert!(
                bits(&single.0).eq(bits(&batched.0)),
                "{tag}: output differs"
            );
            assert_eq!(stats_bytes(&single.1), stats_bytes(&batched.1), "{tag}");
            assert_eq!(batched.2.launches, 1, "{tag}");
        }
    }
    [singles, cold, warm]
}
