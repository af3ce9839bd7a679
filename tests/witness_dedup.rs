//! Block-class deduplication: dedup-on must be a pure host-side
//! optimization. For an eligible kernel the fast-forwarded launch must
//! produce [`KernelStats`] and output memory bit-identical to the full
//! simulation; kernels whose timing depends on data must never engage the
//! witness machinery at all.
//!
//! Every run builds the context it means — engine, dedup, memo — and reads
//! that context's counters, so the tests run in parallel.

use g80::apps::cp::CoulombicPotential;
use g80::apps::matmul::{MatMul, Variant};
use g80::apps::mrifhd::MriFhd;
use g80::apps::mriq::MriQ;
use g80::apps::sad::SadApp;
use g80::apps::saxpy::Saxpy;
use g80::isa::builder::{KernelBuilder, Unroll};
use g80::isa::{AtomOp, CmpOp, Kernel, Pred, Scalar, Space, Value};
use g80::sim::{
    kernel_info, launch, memo_counters, row_counters, work_counters, DeviceMemory, GpuConfig,
    KernelStats, LaunchDims, LaunchError, MemoCounters, SimConfig, SimContext,
};
use std::sync::Arc;

mod common;
use common::{assert_stats_identical, bits, stats_bytes, NewContext};

/// A fresh context isolating the axis under test: no memo cache, the given
/// engine and dedup mode.
fn context(new: NewContext, dedup: bool) -> Arc<SimContext> {
    new(SimConfig {
        dedup,
        memo: false,
        ..SimConfig::default()
    })
}

/// `run` in a fresh product-engine context, with the dedup counters it left.
fn product<T>(dedup: bool, run: impl FnOnce() -> T) -> (T, MemoCounters) {
    context(SimContext::new, dedup).enter(|| (run(), memo_counters()))
}

/// Large enough that the scheduler reaches a periodic steady state: the
/// DRAM-channel stagger takes several block generations to settle, and only
/// then can a refill-boundary snapshot recur.
const BLOCKS: u32 = 2048;
/// Small grid for the cases that must *not* fast-forward (eligibility and
/// witness-mismatch gates fire within the first generation).
const SMALL_BLOCKS: u32 = 512;
const TPB: u32 = 64;
const N: u32 = BLOCKS * TPB;
const SMALL_N: u32 = SMALL_BLOCKS * TPB;

/// Streaming `y[i] = x[i] + x[i]`: every block issues the identical
/// instruction/coalescing pattern, the ideal dedup target.
fn streaming_kernel() -> Kernel {
    let mut b = KernelBuilder::new("stream_double");
    let xs = b.param();
    let ys = b.param();
    let tid = b.tid_x();
    let ntid = b.ntid_x();
    let cta = b.ctaid_x();
    let i = b.imad(cta, ntid, tid);
    let byte = b.shl(i, 2u32);
    let xa = b.iadd(byte, xs);
    let v = b.ld_global(xa, 0);
    let d = b.fadd(v, v);
    let ya = b.iadd(byte, ys);
    b.st_global(ya, 0, d);
    b.build()
}

/// Gather `y[i] = src[idx[i]]`: the second load's address comes from
/// memory, so timing is data-dependent and dedup must stay out.
fn gather_kernel() -> Kernel {
    let mut b = KernelBuilder::new("gather");
    let idx = b.param();
    let src = b.param();
    let dst = b.param();
    let tid = b.tid_x();
    let ntid = b.ntid_x();
    let cta = b.ctaid_x();
    let i = b.imad(cta, ntid, tid);
    let byte = b.shl(i, 2u32);
    let ia = b.iadd(byte, idx);
    let j = b.ld_global(ia, 0);
    let jbyte = b.shl(j, 2u32);
    let sa = b.iadd(jbyte, src);
    let v = b.ld_global(sa, 0);
    let da = b.iadd(byte, dst);
    b.st_global(da, 0, v);
    b.build()
}

/// Eligible by taint (the branch predicate is pure ctaid), but odd and even
/// blocks execute different paths. Round-robin assignment gives every SM a
/// single parity, so donor-SM reuse legitimately fast-forwards the SMs that
/// match the donor's class while the others must be *detected* as
/// mismatching and fall back to full simulation — still bit-identical.
fn block_parity_kernel() -> Kernel {
    let mut b = KernelBuilder::new("block_parity");
    let out = b.param();
    let tid = b.tid_x();
    let ntid = b.ntid_x();
    let cta = b.ctaid_x();
    let i = b.imad(cta, ntid, tid);
    let byte = b.shl(i, 2u32);
    let addr = b.iadd(byte, out);
    let bit = b.and(cta, 1u32);
    let odd = b.setp(CmpOp::Ne, Scalar::U32, bit, 0u32);
    let acc = b.mov(i);
    b.if_(Pred::if_true(odd), |b| {
        let extra = b.imul(acc, 3u32);
        let extra = b.iadd(extra, 7u32);
        b.st_global(addr, 0, extra);
    });
    b.if_(Pred::if_false(odd), |b| {
        b.st_global(addr, 0, acc);
    });
    b.build()
}

/// Diverges on `(ctaid >> 4) & 1`: with 16 SMs the parity alternates
/// between *resident slots of the same SM*, so sibling witnesses mismatch at
/// representative promotion, the recorder invalidates itself, and no block
/// anywhere may fast-forward — full simulation, still bit-identical.
fn gen_parity_kernel() -> Kernel {
    let mut b = KernelBuilder::new("gen_parity");
    let out = b.param();
    let tid = b.tid_x();
    let ntid = b.ntid_x();
    let cta = b.ctaid_x();
    let i = b.imad(cta, ntid, tid);
    let byte = b.shl(i, 2u32);
    let addr = b.iadd(byte, out);
    let gen = b.shr(cta, 4u32);
    let bit = b.and(gen, 1u32);
    let odd = b.setp(CmpOp::Ne, Scalar::U32, bit, 0u32);
    let acc = b.mov(i);
    b.if_(Pred::if_true(odd), |b| {
        let extra = b.imul(acc, 3u32);
        let extra = b.iadd(extra, 7u32);
        b.st_global(addr, 0, extra);
    });
    b.if_(Pred::if_false(odd), |b| {
        b.st_global(addr, 0, acc);
    });
    b.build()
}

fn dims(blocks: u32) -> LaunchDims {
    LaunchDims {
        grid: (blocks, 1),
        block: (TPB, 1, 1),
    }
}

#[test]
fn dedup_bit_identical_and_gated() {
    let cfg = GpuConfig::geforce_8800_gtx();

    // ---- eligible kernel: dedup engages and is bit-identical ----
    let k = streaming_kernel();
    let run = || {
        let mem = DeviceMemory::new(2 * N * 4);
        for i in 0..N {
            mem.write(i * 4, Value::from_f32(i as f32 * 0.5));
        }
        let stats = launch(
            &cfg,
            &k,
            dims(BLOCKS),
            &[Value::from_u32(0), Value::from_u32(N * 4)],
            &mem,
        )
        .expect("streaming launch");
        let out: Vec<u32> = (0..N).map(|i| mem.read((N + i) * 4).as_u32()).collect();
        (stats, out)
    };
    let ((off_stats, off_out), _) = product(false, run);
    let ((on_stats, on_out), c) = product(true, run);
    assert!(
        c.dedup_fast_blocks > 0,
        "dedup never fast-forwarded a block on the ideal workload: {c:?}"
    );
    assert_eq!(
        c.dedup_fast_blocks + c.dedup_sim_blocks,
        BLOCKS as u64,
        "every block must be either fast-forwarded or simulated: {c:?}"
    );
    assert_eq!(c.dedup_fallbacks, 0, "uniform workload must not fall back");
    assert_stats_identical("stream_double", &off_stats, &on_stats);
    assert_eq!(off_out, on_out, "dedup changed output memory");
    assert_eq!(on_out[5], Value::from_f32(5.0 * 0.5 * 2.0).0);

    // ---- data-dependent kernel: witness machinery never engages ----
    let g = gather_kernel();
    let mem = DeviceMemory::new(3 * SMALL_N * 4);
    for i in 0..SMALL_N {
        mem.write(i * 4, Value::from_u32((i * 7 + 3) % SMALL_N)); // idx
        mem.write((SMALL_N + i) * 4, Value::from_u32(i ^ 0xabcd)); // src
    }
    let (stats, c) = product(true, || {
        launch(
            &cfg,
            &g,
            dims(SMALL_BLOCKS),
            &[
                Value::from_u32(0),
                Value::from_u32(SMALL_N * 4),
                Value::from_u32(2 * SMALL_N * 4),
            ],
            &mem,
        )
        .expect("gather launch")
    });
    assert_eq!(
        (c.dedup_fast_blocks, c.dedup_sim_blocks, c.dedup_fallbacks),
        (0, 0, 0),
        "data-dependent kernel must be ineligible for dedup: {c:?}"
    );
    assert_eq!(stats.blocks_executed, SMALL_BLOCKS as u64);
    let j = (5 * 7 + 3) % SMALL_N;
    assert_eq!(mem.read((2 * SMALL_N + 5) * 4).as_u32(), j ^ 0xabcd);

    // ---- SM-parity divergence: donor mismatch falls back, bit-identical ----
    // Each SM's queue is single-parity, so the even SMs reuse the donor
    // while every odd SM's replay must *fail verification* and resimulate.
    let p = block_parity_kernel();
    let run = |k: &Kernel, dedup: bool| {
        product(dedup, || {
            let mem = DeviceMemory::new(SMALL_N * 4);
            let stats = launch(&cfg, k, dims(SMALL_BLOCKS), &[Value::from_u32(0)], &mem)
                .expect("parity launch");
            let out: Vec<u32> = (0..SMALL_N).map(|i| mem.read(i * 4).as_u32()).collect();
            (stats, out)
        })
    };
    let ((off_stats, off_out), _) = run(&p, false);
    let ((on_stats, on_out), c) = run(&p, true);
    assert!(
        c.dedup_fallbacks > 0,
        "odd-parity SMs must fail donor verification and fall back: {c:?}"
    );
    assert_stats_identical("block_parity", &off_stats, &on_stats);
    assert_eq!(off_out, on_out);
    assert_eq!(on_out[TPB as usize], (TPB * 3 + 7)); // block 1 is odd
    assert_eq!(on_out[0], 0); // block 0 is even

    // ---- within-SM divergence: recorder invalidates, nothing fast ----
    let g = gen_parity_kernel();
    let ((off_stats, off_out), _) = run(&g, false);
    let ((on_stats, on_out), c) = run(&g, true);
    assert_eq!(
        c.dedup_fast_blocks, 0,
        "mismatching sibling witnesses must prevent fast-forwarding: {c:?}"
    );
    assert_stats_identical("gen_parity", &off_stats, &on_stats);
    assert_eq!(off_out, on_out);
    let i = 16 * TPB; // block 16 is generation-odd
    assert_eq!(on_out[i as usize], i * 3 + 7);
    assert_eq!(on_out[0], 0); // block 0 is generation-even
}

/// The Section 4 walk (naive → tiled → unrolled → prefetch) on 16×16 thread
/// blocks, where `tid.x`/`tid.y` are affine per half-warp rather than per
/// warp: shape tracking must carry the whole address chain (a shaped-row
/// fraction the warp-affine shape never reached on these kernels), stay a
/// pure host-side optimization — stats and output memory bit-identical to
/// the reference engine's eager warps — and keep witness replay verifying
/// (no fallbacks) with replayed blocks in the mix.
#[test]
fn walk_variants_shaped_and_bit_identical() {
    let walk = [
        Variant::Naive,
        Variant::Tiled {
            tile: 16,
            unroll: false,
        },
        Variant::Tiled {
            tile: 16,
            unroll: true,
        },
        Variant::Prefetch { tile: 16 },
    ];
    // One run in a fresh dedup-on context: output bits + stats, plus the
    // shape mix and dedup tallies it left there.
    let run = |mm: &MatMul, v: Variant, a: &[f32], b: &[f32], new: NewContext| {
        context(new, true).enter(|| {
            let (c, stats, _) = mm.run(v, a, b);
            let bits: Vec<u32> = c.iter().map(|x| x.to_bits()).collect();
            (bits, stats, row_counters(), memo_counters())
        })
    };

    // n=64: one block per SM, all resident — one donor SM runs the timed
    // engine and fifteen replay its streams.
    let mm = MatMul { n: 64 };
    let (a, b) = mm.generate(7);
    for v in walk {
        let tag = format!("matmul {} n=64", v.label());
        let (ref_bits, ref_stats, _, _) = run(&mm, v, &a, &b, g80_oracle::context);
        let (bits, stats, shapes, dedup) = run(&mm, v, &a, &b, SimContext::new);
        assert_stats_identical(&tag, &ref_stats, &stats);
        assert_eq!(ref_bits, bits, "{tag}: output memory differs");
        assert_eq!(dedup.dedup_fallbacks, 0, "{tag}: {dedup:?}");
        let shaped = (shapes.uniform + shapes.affine) as f64 / shapes.total() as f64;
        assert!(
            shaped >= 0.7,
            "{tag}: shaped-row fraction {shaped:.3} < 0.7 ({shapes:?})"
        );
    }

    // n=128: four blocks per SM against three resident slots, so the donor
    // refills before fifteen SMs replay its streams — the replay executor's
    // shaped-address paths under test, not just the timed ones.
    let mm = MatMul { n: 128 };
    let (a, b) = mm.generate(11);
    for v in walk {
        let tag = format!("matmul {} n=128", v.label());
        let (ref_bits, ref_stats, _, _) = run(&mm, v, &a, &b, g80_oracle::context);
        let (bits, stats, _, dedup) = run(&mm, v, &a, &b, SimContext::new);
        assert_stats_identical(&tag, &ref_stats, &stats);
        assert_eq!(ref_bits, bits, "{tag}: output memory differs");
        assert!(dedup.dedup_fast_blocks > 0, "{tag}: no replay: {dedup:?}");
        assert_eq!(dedup.dedup_fallbacks, 0, "{tag}: {dedup:?}");
    }
}

/// Runs `run` on the reference engine, on the product with dedup off and on
/// the product with dedup on; asserts canonical stats bytes and output bits
/// identical across all three and returns the dedup-on run's counters.
fn three_way(tag: &str, run: impl Fn() -> (Vec<u32>, KernelStats)) -> MemoCounters {
    let (ref_bits, ref_stats) = context(g80_oracle::context, false).enter(&run);
    let ((off_bits, off_stats), _) = product(false, &run);
    let ((on_bits, on_stats), counters) = product(true, &run);
    assert_stats_identical(&format!("{tag} ref/off"), &ref_stats, &off_stats);
    assert_stats_identical(&format!("{tag} off/on"), &off_stats, &on_stats);
    assert_eq!(stats_bytes(&ref_stats), stats_bytes(&off_stats), "{tag}");
    assert_eq!(stats_bytes(&off_stats), stats_bytes(&on_stats), "{tag}");
    assert_eq!(ref_bits, off_bits, "{tag}: dedup-off output differs");
    assert_eq!(off_bits, on_bits, "{tag}: dedup-on output differs");
    counters
}

/// Blocks narrower than a half-warp (Figure 4's 4×4 and 8×8 tiles): their
/// `tid` rows are affine per run of `p` lanes, so the timed engine and the
/// replay executor both take the shaped paths — and must take the *same*
/// ones. n=48 at tile 4 is 144 sixteen-thread blocks (one half-live warp
/// each), nine to an SM against eight resident slots; tile 8 is 36 full-warp
/// blocks, fully resident in queues of three and two, so two donors are
/// replayed. Stats and output must equal dedup-off and the reference
/// engine's eager warps, with every block counted, no fallback and most rows
/// shaped.
#[test]
fn narrow_blocks_replay_shaped_and_bit_identical() {
    let mm = MatMul { n: 48 };
    let (a, b) = mm.generate(29);
    for (tile, unroll) in [(4, false), (4, true), (8, false), (8, true)] {
        let v = Variant::Tiled { tile, unroll };
        let tag = format!("matmul {} n=48", v.label());
        let run = || {
            let (c, stats, _) = mm.run(v, &a, &b);
            (bits(&c).collect::<Vec<u32>>(), stats)
        };
        let counters = three_way(&tag, run);
        assert_eq!(counters.dedup_fallbacks, 0, "{tag}: {counters:?}");
        assert!(
            counters.dedup_fast_blocks > 0,
            "{tag}: no replay: {counters:?}"
        );
        let total = counters.dedup_fast_blocks + counters.dedup_sim_blocks;
        assert_eq!(
            total,
            u64::from((48 / tile) * (48 / tile)),
            "{tag}: {counters:?}"
        );
        let ((_, shapes), _) = product(true, || (run(), row_counters()));
        let shaped = (shapes.uniform + shapes.affine) as f64 / shapes.total() as f64;
        assert!(
            shaped >= 0.6,
            "{tag}: shaped-row fraction {shaped:.3} < 0.6 ({shapes:?})"
        );
    }
}

/// Saxpy's arithmetic is uniform or affine by construction and its global
/// accesses take the closed-form degree path, so its row-shape mix is a
/// property of the kernel, pinned exactly: per 8-warp block 16 uniform, 64
/// affine and 8 full rows, 0.91 shaped. A drop means uniform/affine folding
/// stopped engaging on a 1-D streaming kernel. (Dedup off: row counters
/// count timed-engine rows only.)
#[test]
fn saxpy_rows_stay_shaped() {
    let sx = Saxpy {
        n: 1 << 14,
        alpha: 2.0,
    };
    let (x, y) = sx.generate(42);
    let ((_, shapes), _) = product(false, || (sx.run(&x, &y), row_counters()));
    let blocks = u64::from(sx.n / 256);
    assert_eq!(
        (shapes.uniform, shapes.affine, shapes.full),
        (16 * blocks, 64 * blocks, 8 * blocks),
        "{shapes:?}"
    );
}

/// `y[i] = Σ_k c[(tid & 7) + 8k]`: every warp load names eight distinct
/// constant addresses (the serialized path, a `Full` address row), all of
/// them functions of `tid` and the loop counter — block-invariant.
fn const_strided_kernel() -> Kernel {
    let mut b = KernelBuilder::new("const_strided");
    let ys = b.param();
    let tid = b.tid_x();
    let ntid = b.ntid_x();
    let cta = b.ctaid_x();
    let i = b.imad(cta, ntid, tid);
    let byte = b.shl(i, 2u32);
    let ya = b.iadd(byte, ys);
    let lane = b.and(tid, 7u32);
    let lane_byte = b.shl(lane, 2u32);
    let acc = b.mov(g80::isa::Operand::imm_f(0.0));
    b.for_range(0u32, 16u32, 1, Unroll::None, |b, k| {
        let koff = b.shl(k, 5u32);
        let a = b.iadd(koff, lane_byte);
        let c = b.ld_const(a, 0);
        b.ffma_to(acc, c, 0.5f32, acc);
    });
    b.st_global(ya, 0, acc);
    b.build()
}

/// `y[i] = c[ctaid & 15]`: a broadcast, but a different one per block — the
/// blocks of an SM walk its constant cache differently.
fn const_by_block_kernel() -> Kernel {
    let mut b = KernelBuilder::new("const_by_block");
    let ys = b.param();
    let tid = b.tid_x();
    let ntid = b.ntid_x();
    let cta = b.ctaid_x();
    let i = b.imad(cta, ntid, tid);
    let byte = b.shl(i, 2u32);
    let ya = b.iadd(byte, ys);
    let slot = b.and(cta, 15u32);
    let coff = b.shl(slot, 2u32);
    let c = b.ld_const(coff, 0);
    b.st_global(ya, 0, c);
    b.build()
}

/// One broadcast load at a fixed byte address (in or out of the bank).
fn const_at_kernel(addr: u32) -> Kernel {
    let mut b = KernelBuilder::new("const_at");
    let ys = b.param();
    let tid = b.tid_x();
    let ntid = b.ntid_x();
    let cta = b.ctaid_x();
    let i = b.imad(cta, ntid, tid);
    let byte = b.shl(i, 2u32);
    let ya = b.iadd(byte, ys);
    let c = b.ld_const(addr, 0);
    b.st_global(ya, 0, c);
    b.build()
}

/// Constant-cache kernels are dedup-eligible when their constant addresses
/// are block-invariant: MRI-Q, MRI-FHD and CP must replay (no fallback) with
/// stats and memory bit-identical to full simulation *and* to the reference
/// engine — including the constant hit/miss counts the replayed SMs never
/// probed a cache for.
#[test]
fn const_kernels_replay_bit_identical() {
    let cfg = GpuConfig::geforce_8800_gtx();

    // 64 blocks of 256 threads: four per SM against three resident slots, so
    // the recorder runs on the donor and fifteen SMs replay its streams.
    let replayed = |tag: &str, c: MemoCounters| {
        assert!(c.dedup_fast_blocks > 0, "{tag}: no block replayed: {c:?}");
        assert_eq!(c.dedup_fallbacks, 0, "{tag}: {c:?}");
        assert_eq!(c.dedup_fast_blocks + c.dedup_sim_blocks, 64, "{tag}: {c:?}");
    };

    let mriq = MriQ {
        n_voxels: 16384,
        n_k: 32,
    };
    let d = mriq.generate(17);
    let c = three_way("mriq", || {
        let (qr, qi, stats, _) = mriq.run(&d, true);
        (bits(&qr).chain(bits(&qi)).collect(), stats)
    });
    replayed("mriq", c);

    let fhd = MriFhd {
        n_voxels: 16384,
        n_k: 32,
    };
    let d = fhd.generate(23);
    let c = three_way("mrifhd", || {
        let (rf, ifh, stats, _) = fhd.run(&d);
        (bits(&rf).chain(bits(&ifh)).collect(), stats)
    });
    replayed("mrifhd", c);

    let cp = CoulombicPotential {
        grid: 128,
        n_atoms: 24,
        spacing: 0.5,
    };
    let atoms = cp.generate(5);
    for unroll in [false, true] {
        let tag = if unroll { "cp_unrolled" } else { "cp" };
        let c = three_way(tag, || {
            let (out, stats, _) = cp.run(&atoms, unroll);
            (bits(&out).collect(), stats)
        });
        replayed(tag, c);
    }

    // ---- raw kernels: 256 blocks of 64 threads, sixteen per SM ----
    // (eight are resident at once, so the slots refill and the period
    // detector has a steady state to look for on top of donor reuse.)
    let blocks = 16 * 16;
    let n = blocks * TPB;
    let bank: Vec<u32> = (0..256u32)
        .map(|i| Value::from_f32(i as f32 * 0.25 - 7.0).0)
        .collect();
    let run_raw = |k: &Kernel| -> Result<(Vec<u32>, KernelStats), LaunchError> {
        let mut mem = DeviceMemory::new(n * 4);
        mem.const_bank = bank.clone();
        let stats = launch(&cfg, k, dims(blocks), &[Value::from_u32(0)], &mem)?;
        Ok(((0..n).map(|i| mem.read(i * 4).as_u32()).collect(), stats))
    };

    // A tid-strided constant load: distinct > 1, serialized, still
    // block-invariant — eligible, and the per-lane signature replays.
    let k = const_strided_kernel();
    assert!(kernel_info(&k).dedup_eligible);
    let c = three_way("const_strided", || run_raw(&k).expect("strided launch"));
    assert!(c.dedup_fast_blocks > 0, "const_strided: {c:?}");
    assert_eq!(c.dedup_fallbacks, 0, "const_strided: {c:?}");

    // A ctaid-indexed constant load and a texture kernel stay out entirely.
    let k = const_by_block_kernel();
    assert!(!kernel_info(&k).dedup_eligible);
    let c = three_way("const_by_block", || run_raw(&k).expect("by-block launch"));
    assert_eq!(
        (c.dedup_fast_blocks, c.dedup_sim_blocks, c.dedup_fallbacks),
        (0, 0, 0),
        "ctaid-indexed constant load must be ineligible: {c:?}"
    );
    assert!(!kernel_info(&SadApp::default().kernel(Space::Tex)).dedup_eligible);

    // An address outside the constant bank is a kernel bug and is reported
    // the way it always was, whichever executor met it first.
    let inside = const_at_kernel(4 * 255);
    let c = three_way("const_at", || run_raw(&inside).expect("in-bank launch"));
    assert!(c.dedup_fast_blocks > 0, "const_at: {c:?}");
    let outside = const_at_kernel(4 * 256);
    for dedup in [false, true] {
        match product(dedup, || run_raw(&outside)).0 {
            Err(LaunchError::Panic(msg)) => assert!(
                msg.contains("const read out of bounds: addr 0x400"),
                "dedup {dedup}: {msg}"
            ),
            other => panic!(
                "dedup {dedup}: expected the out-of-bounds panic, got {:?}",
                other.err()
            ),
        }
    }
}

/// `ys[i] += 1` in place; the block whose `ctaid` is the second parameter
/// also takes a branch no other block takes, a block class of its own.
fn late_divergence_kernel() -> Kernel {
    let mut b = KernelBuilder::new("late_divergence");
    let (ys, odd_one) = (b.param(), b.param());
    let tid = b.tid_x();
    let ntid = b.ntid_x();
    let cta = b.ctaid_x();
    let i = b.imad(cta, ntid, tid);
    let byte = b.shl(i, 2u32);
    let addr = b.iadd(byte, ys);
    let v = b.ld_global(addr, 0);
    let bumped = b.iadd(v, 1u32);
    b.st_global(addr, 0, bumped);
    let odd = b.setp(CmpOp::Eq, Scalar::U32, cta, odd_one);
    b.if_(Pred::if_true(odd), |b| {
        let extra = b.iadd(bumped, 1u32);
        b.st_global(addr, 0, extra);
    });
    b.build()
}

/// A donor that freezes its representative and only then meets a block of
/// another class. 512 blocks put 32 on each SM, eight resident at a time:
/// SM 0's first retire freezes the representative and its fifteen
/// followers replay all their blocks clean, while block 320, SM 0's 21st,
/// diverges. The donor ends unverified, so no follower may commit: the
/// kernel increments in place, and a committed replay run again timed would
/// add 2. Stats, memory and dedup counts equal what the followers would
/// have done run timed from the start.
#[test]
fn a_donor_diverging_after_its_freeze_commits_no_follower() {
    let cfg = GpuConfig::geforce_8800_gtx();
    let k = late_divergence_kernel();
    let run = |dedup: bool, odd_one: u32| {
        context(SimContext::new, dedup).enter(|| {
            let mem = DeviceMemory::new(SMALL_N * 4);
            for i in 0..SMALL_N {
                mem.write(i * 4, Value::from_u32(3 * i));
            }
            let params = [Value::from_u32(0), Value::from_u32(odd_one)];
            let stats = launch(&cfg, &k, dims(SMALL_BLOCKS), &params, &mem).expect("launch");
            let out: Vec<u32> = (0..SMALL_N).map(|i| mem.read(i * 4).as_u32()).collect();
            (stats, out, memo_counters(), work_counters())
        })
    };
    let (off, off_out, ..) = run(false, 320);
    let (on, on_out, c, work) = run(true, 320);
    assert_stats_identical("late_divergence", &off, &on);
    assert_eq!(off_out, on_out, "a follower's replay committed");
    assert_eq!(on_out[5], 16);
    assert_eq!(on_out[320 * TPB as usize], 3 * 320 * TPB + 2);
    // Every SM ran timed in the end, and no replay failed: nothing fell
    // back. The donor never fast-forwarded, so every replayed instruction
    // was a follower's, all 32 blocks of each of the fifteen.
    let counts = (c.dedup_fast_blocks, c.dedup_sim_blocks, c.dedup_fallbacks);
    assert_eq!(counts, (0, 512, 0), "{c:?}");

    // With no odd block the same launch verifies its donor and commits
    // every follower, whose blocks run the clean per-block count.
    let (clean, _, clean_c, clean_work) = run(true, u32::MAX);
    let counts = (clean_c.dedup_fast_blocks, clean_c.dedup_sim_blocks);
    assert_eq!((counts, clean_c.dedup_fallbacks), ((480, 32), 0));
    let per_block = clean.warp_instructions / u64::from(SMALL_BLOCKS);
    assert_eq!(work.replayed_insts, 15 * 32 * per_block, "{work:?}");
    assert_eq!(clean_work.replayed_insts, work.replayed_insts);
}

/// Each block stores a 64-word row of its own — `128·ctaid` words in, so a
/// gap no block writes follows every row — waits at the barrier, and loads
/// the row back `shift` words on into a second output. At shift 0 every load
/// run lies inside what the replayed period has buffered; at shift 8 the
/// last run of each block reaches across the end of its row into the gap.
fn read_back_kernel(shift: i32) -> Kernel {
    let mut b = KernelBuilder::new("read_back");
    let (rows, out) = (b.param(), b.param());
    let tid = b.tid_x();
    let ntid = b.ntid_x();
    let cta = b.ctaid_x();
    let row = b.imad(cta, 128u32 * 4, rows);
    let lane_byte = b.shl(tid, 2u32);
    let ra = b.iadd(row, lane_byte);
    let v = b.imad(cta, 1000u32, tid);
    b.st_global(ra, 0, v);
    b.bar();
    let back = b.ld_global(ra, 4 * shift);
    let w = b.iadd(back, 1u32);
    let i = b.imad(cta, ntid, tid);
    let byte = b.shl(i, 2u32);
    let oa = b.iadd(byte, out);
    b.st_global(oa, 0, w);
    b.build()
}

/// Stores `s[tid]` into a 64-word shared array, then loads `s[tid + 8]`:
/// the last load run of the block's second warp crosses the end of shared
/// memory, a kernel bug.
fn shared_tail_kernel() -> Kernel {
    let mut b = KernelBuilder::new("shared_tail");
    let out = b.param();
    let s = b.shared_alloc(64);
    let tid = b.tid_x();
    let ntid = b.ntid_x();
    let cta = b.ctaid_x();
    let lane_byte = b.shl(tid, 2u32);
    let sa = b.iadd(lane_byte, s);
    b.st_shared(sa, 0, tid);
    b.bar();
    let v = b.ld_shared(sa, 4 * 8);
    let i = b.imad(cta, ntid, tid);
    let byte = b.shl(i, 2u32);
    let oa = b.iadd(byte, out);
    b.st_global(oa, 0, v);
    b.build()
}

/// `x[i] = x[i + 1]` (a load past the thread's word) or `x[i + 1] = tid` (a
/// store past it) over a buffer of one word per thread: only the last lane
/// of the last block leaves memory.
fn global_tail_kernel(store: bool) -> Kernel {
    let name = if store {
        "global_tail_st"
    } else {
        "global_tail_ld"
    };
    let mut b = KernelBuilder::new(name);
    let buf = b.param();
    let tid = b.tid_x();
    let ntid = b.ntid_x();
    let cta = b.ctaid_x();
    let i = b.imad(cta, ntid, tid);
    let byte = b.shl(i, 2u32);
    let a = b.iadd(byte, buf);
    if store {
        b.st_global(a, 4, tid);
    } else {
        let v = b.ld_global(a, 4);
        b.st_global(a, 0, v);
    }
    b.build()
}

/// Stores `tid` to `s[tid + 8]` in a 64-word shared array, then to
/// `out[i]`: the last shared store run of every block's second warp crosses
/// the end of shared memory.
fn shared_store_tail_kernel() -> Kernel {
    let mut b = KernelBuilder::new("shared_store_tail");
    let out = b.param();
    let s = b.shared_alloc(64);
    let tid = b.tid_x();
    let ntid = b.ntid_x();
    let cta = b.ctaid_x();
    let lane_byte = b.shl(tid, 2u32);
    let sa = b.iadd(lane_byte, s);
    b.st_shared(sa, 4 * 8, tid);
    let i = b.imad(cta, ntid, tid);
    let byte = b.shl(i, 2u32);
    let oa = b.iadd(byte, out);
    b.st_global(oa, 0, tid);
    b.build()
}

/// `atom.add` of 1 to `x[i + 1]` over a buffer of one word per thread (only
/// the last lane of the last block leaves memory), or to `s[tid + 8]` in a
/// 64-word shared array (every block's second warp leaves it).
fn atomic_tail_kernel(space: Space) -> Kernel {
    let mut b = KernelBuilder::new("atomic_tail");
    let buf = b.param();
    let tid = b.tid_x();
    let ntid = b.ntid_x();
    let cta = b.ctaid_x();
    let (base, lane_byte) = match space {
        Space::Shared => (b.shared_alloc(64).into(), b.shl(tid, 2u32)),
        _ => {
            let i = b.imad(cta, ntid, tid);
            (buf, b.shl(i, 2u32))
        }
    };
    let a = b.iadd(lane_byte, base);
    let off = if space == Space::Shared { 4 * 8 } else { 4 };
    b.atom(AtomOp::Add, space, a, off, 1u32);
    b.build()
}

/// A kernel bug reads the same whichever executor meets it. In the global
/// cases only block 255 leaves memory; it runs on SM 15, which replays
/// against its donor, so replay meets the bad address first, refuses, and
/// the timed fallback panics. Dedup on and off report word for word alike.
#[test]
fn out_of_bounds_accesses_panic_alike_with_dedup_on_and_off() {
    let cfg = GpuConfig::geforce_8800_gtx();
    let blocks = 16 * 16;
    let cases = [
        (
            global_tail_kernel(false),
            "global read out of bounds: addr 0x10000",
            1,
        ),
        (
            global_tail_kernel(true),
            "global write out of bounds: addr 0x10000",
            1,
        ),
        (
            shared_store_tail_kernel(),
            "kernel shared_store_tail: shared store out of bounds (64 >= 64)",
            0,
        ),
        // Atomics keep a kernel out of replay: the timed engine meets these.
        (
            atomic_tail_kernel(Space::Global),
            "atomic out of bounds: addr 0x10000",
            0,
        ),
        (
            atomic_tail_kernel(Space::Shared),
            "shared atomic out of bounds",
            0,
        ),
    ];
    for (k, want, fallbacks) in cases {
        let [off, on] = [false, true].map(|dedup| {
            let mem = DeviceMemory::new(4 * TPB * blocks);
            let (launched, counters) = product(dedup, || {
                launch(&cfg, &k, dims(blocks), &[Value::from_u32(0)], &mem)
            });
            match launched {
                Err(LaunchError::Panic(msg)) => (msg, counters.dedup_fallbacks),
                other => panic!("{} dedup {dedup}: expected a panic, got {other:?}", k.name),
            }
        });
        assert_eq!(off.0, on.0, "{}", k.name);
        assert_eq!(on.0, want, "{}", k.name);
        assert_eq!((off.1, on.1), (0, fallbacks), "{}", k.name);
    }
}

/// Read-your-own-writes through the run form: a replayed block that loads
/// back the row it just stored — wholly inside the period's buffered writes,
/// or straddling their end — reads what the timed engine reads, three ways
/// bit-identical with blocks replayed and no fallback. And a shared load run
/// crossing the end of shared memory is reported at its first offending
/// lane, whichever executor meets it.
#[test]
fn replayed_blocks_read_back_their_own_rows() {
    let cfg = GpuConfig::geforce_8800_gtx();
    let blocks = 16 * 16;
    let (rows, outs) = (128 * blocks, 64 * blocks);
    for shift in [0, 8] {
        let k = read_back_kernel(shift);
        assert!(kernel_info(&k).dedup_eligible);
        let tag = format!("read_back shift {shift}");
        let run = || {
            let mem = DeviceMemory::new(4 * (rows + outs));
            let params = [Value::from_u32(0), Value::from_u32(4 * rows)];
            let stats = launch(&cfg, &k, dims(blocks), &params, &mem).expect("read-back launch");
            (mem.read_slice(0, (rows + outs) as usize).collect(), stats)
        };
        let c = three_way(&tag, run);
        assert!(c.dedup_fast_blocks > 0, "{tag}: no replay: {c:?}");
        assert_eq!(c.dedup_fallbacks, 0, "{tag}: {c:?}");
        let (words, _): (Vec<u32>, _) = run();
        for (cta, tid) in [(0, 0), (7, 55), (7, 56), (255, 63)] {
            let read = tid + shift as u32;
            let want = if read < 64 { cta * 1000 + read + 1 } else { 1 };
            let got = words[(rows + cta * 64 + tid) as usize];
            assert_eq!(got, want, "{tag}: block {cta} thread {tid}");
        }
    }

    let k = shared_tail_kernel();
    for dedup in [false, true] {
        let mem = DeviceMemory::new(4 * outs);
        let launched = product(dedup, || {
            launch(&cfg, &k, dims(blocks), &[Value::from_u32(0)], &mem)
        });
        match launched.0 {
            Err(LaunchError::Panic(msg)) => assert_eq!(
                msg, "kernel shared_tail: shared load out of bounds (64 >= 64)",
                "dedup {dedup}"
            ),
            other => panic!("dedup {dedup}: expected the out-of-bounds panic, got {other:?}"),
        }
    }
}

/// A batch is nine single launches, under every configuration of the
/// matrix: `run_batch` of the tuner's nine variants at n=48 equals nine
/// `run` calls in every stats field and in output memory, simulated (cold)
/// and replayed from the memo (warm) — and, going through the single-launch
/// path, a cold batch gets donor-SM replay (n=48 at 16×16 is nine blocks on
/// nine SMs: one simulates, eight replay; 33 of the sweep's 405 blocks
/// simulate in all, see `fully_resident_sms_reuse_their_donor`).
#[test]
fn batch_is_nine_single_launches() {
    for (name, ctx) in common::contexts().iter() {
        let cfg = ctx.config();
        let [singles, cold, warm] = common::assert_batch_equals_singles(48, cfg);
        let (singles, cold_counts, warm_counts) = (singles.counts, cold.counts, warm.counts);
        let probes = if cfg.memo { 9 } else { 0 };
        assert_eq!((singles.hits, singles.misses), (0, probes), "{name}");
        // Same launches, same path: the cold batch simulates and replays
        // exactly what nine single launches do — unless the singles left
        // their entries in a disk tier, which then answers all nine.
        if cfg.disk_dir.is_some() {
            assert_eq!(cold_counts.disk_hits, 9, "{name}: {cold_counts:?}");
            assert_eq!(cold_counts.misses, 0, "{name}: {cold_counts:?}");
            continue;
        }
        assert_eq!(
            (cold_counts.hits, cold_counts.misses),
            (0, probes),
            "{name}"
        );
        let (sim, replayed) = if cfg.dedup { (33, 372) } else { (0, 0) };
        assert_eq!(
            (cold_counts.dedup_sim_blocks, cold_counts.dedup_fast_blocks),
            (sim, replayed),
            "{name}: {cold_counts:?}"
        );
        assert_eq!(cold_counts.dedup_fallbacks, 0, "{name}: {cold_counts:?}");
        assert_eq!(cold_counts.dedup_fast_blocks, singles.dedup_fast_blocks);
        assert_eq!(cold_counts.dedup_sim_blocks, singles.dedup_sim_blocks);
        for (v, batched) in Variant::tuner_sweep().iter().zip(&cold.runs) {
            assert_eq!(batched.2.memo_hits, 0, "{name}: cold batch, {}", v.label());
        }
        // The warm batch finds all nine entries where the memo holds them
        // (a smaller one resimulates some, bit-identically, as checked
        // above) and then simulates nothing.
        if cfg.memo && cfg.memo_cap >= 9 {
            assert_eq!((warm_counts.hits, warm_counts.misses), (9, 9), "{name}");
            assert_eq!(warm_counts.dedup_fast_blocks, singles.dedup_fast_blocks);
            assert_eq!(warm_counts.dedup_sim_blocks, singles.dedup_sim_blocks);
            for (v, batched) in Variant::tuner_sweep().iter().zip(&warm.runs) {
                assert_eq!(batched.2.memo_hits, 1, "{name}: warm batch, {}", v.label());
            }
        }
    }
}

/// Donor-SM reuse needs no refill: an SM whose whole queue is resident at
/// once still builds, freezes and verifies the representative, and every
/// queue length with a second SM gets a donor of its own. The tuner's small
/// grids (one block per SM at most, or queues of q + 1 and q) replay all but
/// one SM per length, bit-identical to dedup off and the reference engine.
/// Per launch, in sweep order (naive, 4×4, 4×4u, 8×8, 8×8u, 16×16,
/// 16×16u, prefetch, register-tiled): `(simulated, replayed)` blocks.
#[test]
fn fully_resident_sms_reuse_their_donor() {
    // (n, simulated per launch, replayed per launch, per-sweep totals).
    let expected = [
        // One block per SM or a single block: one donor, the rest replay.
        (16, [1; 9], [0, 15, 15, 3, 3, 0, 0, 0, 0], (9, 36)),
        // 4×4 is 64 blocks, four per SM and all resident.
        (
            32,
            [1, 4, 4, 1, 1, 1, 1, 1, 1],
            [3, 60, 60, 15, 15, 3, 3, 3, 3],
            (15, 165),
        ),
        // 8×8 is 36 blocks: four SMs hold three, twelve hold two — two
        // donors (3 + 2 blocks timed), 31 blocks replay.
        (
            48,
            [1, 9, 9, 5, 5, 1, 1, 1, 1],
            [8, 135, 135, 31, 31, 8, 8, 8, 8],
            (33, 372),
        ),
    ];
    for (n, simulated, replayed, per_sweep) in expected {
        let mm = MatMul { n };
        let (a, b) = mm.generate(u64::from(n) + 3);
        let sweep = Variant::tuner_sweep();
        for ((v, sim), fast) in sweep.into_iter().zip(simulated).zip(replayed) {
            let tag = format!("matmul {} n={n}", v.label());
            let c = three_way(&tag, || {
                let (c, stats, _) = mm.run(v, &a, &b);
                (bits(&c).collect(), stats)
            });
            assert_eq!(
                (c.dedup_sim_blocks, c.dedup_fast_blocks, c.dedup_fallbacks),
                (sim, fast, 0),
                "{tag}: {c:?}"
            );
        }
        let sums = (simulated.iter().sum(), replayed.iter().sum());
        assert_eq!(sums, per_sweep, "n={n}");
    }

    let cfg = GpuConfig::geforce_8800_gtx();
    // `n` input words then `n` output words; a one-parameter kernel writes
    // over its input.
    let run = |k: &Kernel, blocks: u32| {
        let n = blocks * TPB;
        let mem = DeviceMemory::new(2 * n * 4);
        for i in 0..n {
            mem.write(i * 4, Value::from_f32(i as f32 * 0.25));
        }
        let params = [Value::from_u32(0), Value::from_u32(n * 4)];
        let params = &params[..k.num_params as usize];
        let stats = launch(&cfg, k, dims(blocks), params, &mem).expect("launch");
        (
            (0..2 * n).map(|i| mem.read(i * 4).as_u32()).collect(),
            stats,
        )
    };

    // Two blocks per SM, both resident, one parity per SM: the even SMs
    // replay the donor, every odd SM fails verification, falls back to the
    // timed engine with nothing committed, and stays bit-identical.
    let p = block_parity_kernel();
    let c = three_way("block_parity resident", || run(&p, 32));
    assert_eq!(
        (c.dedup_sim_blocks, c.dedup_fast_blocks, c.dedup_fallbacks),
        (2 + 8 * 2, 7 * 2, 8),
        "block_parity resident: {c:?}"
    );

    // A single-SM launch has no SM to replay it: it records nothing and
    // simulates. So does a queue length only one SM has — 17 blocks put
    // two on SM 0, which runs plain beside the donor of the one-block SMs.
    let k = streaming_kernel();
    for (blocks, want) in [(1, (1, 0)), (17, (2 + 1, 14))] {
        let tag = format!("stream_double, {blocks} blocks");
        let c = three_way(&tag, || run(&k, blocks));
        assert_eq!(
            (c.dedup_sim_blocks, c.dedup_fast_blocks, c.dedup_fallbacks),
            (want.0, want.1, 0),
            "{tag}: {c:?}"
        );
    }
}
