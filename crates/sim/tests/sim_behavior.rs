//! End-to-end behavioural tests of the simulator: functional correctness of
//! kernels under divergence, barriers, shared/constant/texture memory and
//! atomics — plus the *timing* behaviours the paper's principles predict
//! (coalescing, bank conflicts, latency hiding, occupancy).

use g80_isa::builder::{KernelBuilder, Unroll};
use g80_isa::{AtomOp, Kernel, Value};
use g80_isa::{CmpOp, Operand, Pred, Scalar, SfuOp, Space};
use g80_sim::{coalesce_half_warp, smem_conflict_degree};
use g80_sim::{launch, DeviceMemory, GpuConfig, LaunchDims, SimConfig, SimContext};

fn gtx() -> GpuConfig {
    GpuConfig::geforce_8800_gtx()
}

fn dims1d(blocks: u32, threads: u32) -> LaunchDims {
    LaunchDims {
        grid: (blocks, 1),
        block: (threads, 1, 1),
    }
}

/// Builds a kernel computing the global linear thread index into a register,
/// returning (builder, index_reg).
fn with_gtid(name: &str) -> (KernelBuilder, g80_isa::Reg) {
    let mut b = KernelBuilder::new(name);
    let tid = b.tid_x();
    let ntid = b.ntid_x();
    let cta = b.ctaid_x();
    let i = b.imad(cta, ntid, tid);
    (b, i)
}

#[test]
fn saxpy_is_correct_and_coalesced() {
    // y[i] = a*x[i] + y[i] over 4096 elements.
    let n = 4096u32;
    let (mut b, i) = with_gtid("saxpy");
    let (xp, yp, a) = (b.param(), b.param(), b.param());
    let byte = b.shl(i, 2u32);
    let xa = b.iadd(byte, xp);
    let ya = b.iadd(byte, yp);
    let xv = b.ld_global(xa, 0);
    let yv = b.ld_global(ya, 0);
    let r = b.ffma(a, xv, yv);
    b.st_global(ya, 0, r);
    let k = b.build();

    let mem = DeviceMemory::new(n * 8);
    for j in 0..n {
        mem.write(j * 4, Value::from_f32(j as f32)); // x
        mem.write(n * 4 + j * 4, Value::from_f32(1.0)); // y
    }
    let stats = launch(
        &gtx(),
        &k,
        dims1d(n / 256, 256),
        &[
            Value::from_u32(0),
            Value::from_u32(n * 4),
            Value::from_f32(2.0),
        ],
        &mem,
    )
    .unwrap();

    for j in (0..n).step_by(97) {
        assert_eq!(mem.read(n * 4 + j * 4).as_f32(), 2.0 * j as f32 + 1.0);
    }
    // Every access is a coalesced half-warp: 3 accesses * 2 halves * 128 warps.
    assert_eq!(stats.uncoalesced_half_warps, 0);
    assert_eq!(stats.coalesced_half_warps, 3 * 2 * (n as u64 / 32));
    assert!(stats.gflops() > 0.0);
}

#[test]
fn misaligned_access_is_uncoalesced_and_slower() {
    let n = 65536u32; // large enough to be bandwidth- rather than latency-bound
    let build = |shift: i32| -> Kernel {
        let (mut b, i) = with_gtid("stream");
        let xp = b.param();
        let byte = b.shl(i, 2u32);
        let xa = b.iadd(byte, xp);
        let v = b.ld_global(xa, shift); // shift breaks 64B alignment
        let d = b.fadd(v, v);
        b.st_global(xa, shift, d);
        b.build()
    };
    let aligned = build(0);
    let misaligned = build(4);

    let mem = DeviceMemory::new(n * 4 + 64);
    let run =
        |k: &Kernel| launch(&gtx(), k, dims1d(n / 256, 256), &[Value::from_u32(0)], &mem).unwrap();
    let sa = run(&aligned);
    let sm = run(&misaligned);
    assert_eq!(sa.uncoalesced_half_warps, 0);
    assert_eq!(sm.coalesced_half_warps, 0);
    assert!(sm.global_bytes >= 4 * sa.global_bytes);
    assert!(
        sm.cycles > 2 * sa.cycles,
        "misaligned {} vs aligned {} cycles",
        sm.cycles,
        sa.cycles
    );
}

#[test]
fn divergent_branches_compute_both_paths() {
    // out[i] = tid < 13 ? i * 2 : i * 3 (divergence inside each warp).
    let n = 512u32;
    let (mut b, i) = with_gtid("diverge");
    let outp = b.param();
    let tid = b.tid_x();
    let lane = b.and(tid, 31u32);
    let p = b.setp(CmpOp::Lt, Scalar::U32, lane, 13u32);
    let out = b.vreg();
    b.if_else(
        Pred::if_true(p),
        |b| {
            let v = b.imul(i, 2u32);
            b.mov_to(out, v);
        },
        |b| {
            let v = b.imul(i, 3u32);
            b.mov_to(out, v);
        },
    );
    let byte = b.shl(i, 2u32);
    let oa = b.iadd(byte, outp);
    b.st_global(oa, 0, out);
    let k = b.build();

    let mem = DeviceMemory::new(n * 4);
    let stats = launch(&gtx(), &k, dims1d(2, 256), &[Value::from_u32(0)], &mem).unwrap();
    for j in 0..n {
        let expect = if j % 32 < 13 { j * 2 } else { j * 3 };
        assert_eq!(mem.read(j * 4).as_u32(), expect, "element {j}");
    }
    assert!(stats.divergent_branches > 0);
}

#[test]
fn block_reduction_with_barriers() {
    // Each 256-thread block sums its elements via shared-memory tree
    // reduction; block b writes the sum to out[b].
    let n = 2048u32;
    let (mut b, i) = with_gtid("reduce");
    let (inp, outp) = (b.param(), b.param());
    let smem = b.shared_alloc(256);
    let tid = b.tid_x();
    let byte = b.shl(i, 2u32);
    let ia = b.iadd(byte, inp);
    let v = b.ld_global(ia, 0);
    let tb = b.shl(tid, 2u32);
    let sa = b.iadd(tb, smem);
    b.st_shared(sa, 0, v);
    b.bar();
    // Tree reduction: stride 128, 64, ..., 1.
    let mut stride = 128u32;
    while stride >= 1 {
        let p = b.setp(CmpOp::Lt, Scalar::U32, tid, stride);
        b.if_(Pred::if_true(p), |b| {
            let mine = b.ld_shared(sa, 0);
            let other = b.ld_shared(sa, (stride * 4) as i32);
            let sum = b.fadd(mine, other);
            b.st_shared(sa, 0, sum);
        });
        b.bar();
        stride /= 2;
    }
    let p0 = b.setp(CmpOp::Eq, Scalar::U32, tid, 0u32);
    let cta = b.ctaid_x();
    b.if_(Pred::if_true(p0), |b| {
        let total = b.ld_shared(smem, 0);
        let ob = b.shl(cta, 2u32);
        let oa = b.iadd(ob, outp);
        b.st_global(oa, 0, total);
    });
    let k = b.build();

    let mem = DeviceMemory::new(n * 4 + 64);
    for j in 0..n {
        mem.write(j * 4, Value::from_f32(1.0 + (j % 4) as f32));
    }
    launch(
        &gtx(),
        &k,
        dims1d(n / 256, 256),
        &[Value::from_u32(0), Value::from_u32(n * 4)],
        &mem,
    )
    .unwrap();
    // Each block of 256 has 64 each of 1,2,3,4 => 64*10 = 640.
    for blk in 0..n / 256 {
        assert_eq!(mem.read(n * 4 + blk * 4).as_f32(), 640.0, "block {blk}");
    }
}

#[test]
fn bank_conflicts_slow_shared_access() {
    // Each thread hammers shared memory with either stride-1 (conflict-free)
    // or stride-16 (all lanes in one bank) word addressing.
    let build = |stride_words: u32| -> Kernel {
        let mut b = KernelBuilder::new("smem");
        let outp = b.param();
        let smem = b.shared_alloc(16 * 256);
        let tid = b.tid_x();
        let woff = b.imul(tid, stride_words * 4);
        let sa = b.iadd(woff, smem);
        let acc = b.mov(Operand::imm_f(0.0));
        b.for_range(0u32, 64u32, 1, Unroll::None, |b, _| {
            let v = b.ld_shared(sa, 0);
            b.ffma_to(acc, v, 1.5f32, acc);
        });
        let ob = b.shl(tid, 2u32);
        let oa = b.iadd(ob, outp);
        b.st_global(oa, 0, acc);
        b.build()
    };
    let free = build(1);
    let conflicted = build(16);
    let mem = DeviceMemory::new(4096);
    let run = |k: &Kernel| launch(&gtx(), k, dims1d(1, 256), &[Value::from_u32(0)], &mem).unwrap();
    let sf = run(&free);
    let sc = run(&conflicted);
    assert_eq!(sf.smem_conflict_extra_cycles, 0);
    assert!(sc.smem_conflict_extra_cycles > 0);
    assert!(
        sc.cycles > 3 * sf.cycles,
        "16-way conflicts {} vs conflict-free {} cycles",
        sc.cycles,
        sf.cycles
    );
}

#[test]
fn more_warps_hide_memory_latency() {
    // A latency-bound pointer-walk style kernel: with one warp per SM the
    // load latency is exposed; with 8 blocks of warps it overlaps.
    let build = || -> Kernel {
        let (mut b, i) = with_gtid("latency");
        let xp = b.param();
        let byte = b.shl(i, 2u32);
        let xa = b.iadd(byte, xp);
        let acc = b.mov(Operand::imm_f(0.0));
        b.for_range(0u32, 32u32, 1, Unroll::None, |b, _| {
            let v = b.ld_global(xa, 0);
            b.ffma_to(acc, v, 1.0f32, acc); // dependent on the load
        });
        b.st_global(xa, 0, acc);
        b.build()
    };
    let k = build();
    let mem = DeviceMemory::new(1 << 16);
    // 16 blocks of 32 threads: one warp per SM.
    let low = launch(&gtx(), &k, dims1d(16, 32), &[Value::from_u32(0)], &mem).unwrap();
    // 128 blocks of 32: 8 warps per SM, same work per warp.
    let high = launch(&gtx(), &k, dims1d(128, 32), &[Value::from_u32(0)], &mem).unwrap();
    // 8x the work in well under 8x the time (latency hiding).
    let low_rate = low.thread_instructions as f64 / low.cycles as f64;
    let high_rate = high.thread_instructions as f64 / high.cycles as f64;
    assert!(
        high_rate > 3.0 * low_rate,
        "throughput should scale with warps: {low_rate:.3} -> {high_rate:.3}"
    );
}

#[test]
fn simulation_is_deterministic() {
    let n = 1024u32;
    let (mut b, i) = with_gtid("det");
    let xp = b.param();
    let byte = b.shl(i, 2u32);
    let xa = b.iadd(byte, xp);
    let v = b.ld_global(xa, 0);
    let s = b.sfu(SfuOp::Rsqrt, v);
    b.st_global(xa, 0, s);
    let k = b.build();

    let run = || {
        let mem = DeviceMemory::new(n * 4);
        for j in 0..n {
            mem.write(j * 4, Value::from_f32(1.0 + j as f32));
        }
        let s = launch(&gtx(), &k, dims1d(4, 256), &[Value::from_u32(0)], &mem).unwrap();
        let out: Vec<u32> = mem.read_slice(0, n as usize).collect();
        (s.cycles, s.warp_instructions, s.global_bytes, out)
    };
    let a = run();
    let b2 = run();
    assert_eq!(a, b2);
}

#[test]
fn global_atomics_count_correctly() {
    let (mut b, _) = with_gtid("atom");
    let ctr = b.param();
    b.atom(AtomOp::Add, Space::Global, ctr, 0, 1u32);
    let k = b.build();
    let mem = DeviceMemory::new(64);
    let stats = launch(&gtx(), &k, dims1d(48, 128), &[Value::from_u32(0)], &mem).unwrap();
    assert_eq!(mem.read(0).as_u32(), 48 * 128);
    assert_eq!(stats.atomic_transactions, 48 * 128);
}

#[test]
fn many_blocks_drain_through_residency_limits() {
    // 400 blocks of 256 threads: at most 3 blocks/SM resident at once
    // (limited by the 768-thread cap), so the queue must recycle.
    let n_blocks = 400u32;
    let (mut b, i) = with_gtid("drain");
    let outp = b.param();
    let byte = b.shl(i, 2u32);
    let oa = b.iadd(byte, outp);
    b.st_global(oa, 0, i);
    let k = b.build();
    let mem = DeviceMemory::new(n_blocks * 256 * 4);
    let stats = launch(
        &gtx(),
        &k,
        dims1d(n_blocks, 256),
        &[Value::from_u32(0)],
        &mem,
    )
    .unwrap();
    assert_eq!(stats.blocks_executed, n_blocks as u64);
    assert!(stats.blocks_per_sm <= 3);
    for j in [0u32, 12345, 102399] {
        assert_eq!(mem.read(j * 4).as_u32(), j);
    }
}

#[test]
fn per_lane_loop_bounds_diverge_correctly() {
    // out[i] = sum_{k=0}^{lane} 1 — each lane loops a different number of
    // times (divergent backward branch).
    let n = 64u32;
    let (mut b, i) = with_gtid("ragged");
    let outp = b.param();
    let lane = b.and(i, 31u32);
    let bound = b.iadd(lane, 1u32);
    let acc = b.mov(Operand::imm_u(0));
    b.for_range(0u32, Operand::Reg(bound), 1, Unroll::None, |b, _| {
        let t = b.iadd(acc, 1u32);
        b.mov_to(acc, t);
    });
    let byte = b.shl(i, 2u32);
    let oa = b.iadd(byte, outp);
    b.st_global(oa, 0, acc);
    let k = b.build();
    let mem = DeviceMemory::new(n * 4);
    let stats = launch(&gtx(), &k, dims1d(1, n), &[Value::from_u32(0)], &mem).unwrap();
    for j in 0..n {
        assert_eq!(mem.read(j * 4).as_u32(), (j % 32) + 1, "thread {j}");
    }
    assert!(stats.divergent_branches > 0);
}

#[test]
fn register_pressure_reduces_occupancy_and_performance() {
    // The Section 4.2 experiment: same kernel, 10 vs 11 registers per
    // thread, 256-thread blocks — 3 vs 2 resident blocks, measurably slower.
    let build = || -> Kernel {
        let (mut b, i) = with_gtid("pressure");
        let xp = b.param();
        let byte = b.shl(i, 2u32);
        let xa = b.iadd(byte, xp);
        let acc = b.mov(Operand::imm_f(0.0));
        b.for_range(0u32, 64u32, 1, Unroll::None, |b, _| {
            let v = b.ld_global(xa, 0);
            b.ffma_to(acc, v, 1.0f32, acc);
        });
        b.st_global(xa, 0, acc);
        b.build()
    };
    let k10 = build().with_forced_regs(10);
    let k11 = build().with_forced_regs(11);
    let mem = DeviceMemory::new(1 << 20);
    let run = |k: &Kernel| launch(&gtx(), k, dims1d(96, 256), &[Value::from_u32(0)], &mem).unwrap();
    let s10 = run(&k10);
    let s11 = run(&k11);
    assert_eq!(s10.blocks_per_sm, 3);
    assert_eq!(s11.blocks_per_sm, 2);
    assert!(
        s11.cycles > s10.cycles,
        "fewer resident blocks should be slower: {} vs {}",
        s11.cycles,
        s10.cycles
    );
}

#[test]
fn constant_memory_broadcast_reads() {
    let n = 256u32;
    let (mut b, i) = with_gtid("cmem");
    let outp = b.param();
    // All threads read c[0..8] (broadcast) and sum.
    let acc = b.mov(Operand::imm_f(0.0));
    b.for_range(0u32, 8u32, 1, Unroll::Full, |b, kk| {
        let off = kk.as_imm().unwrap().as_u32() as i32 * 4;
        let c = b.ld_const(Operand::imm_u(0), off);
        b.ffma_to(acc, c, 1.0f32, acc);
    });
    let byte = b.shl(i, 2u32);
    let oa = b.iadd(byte, outp);
    b.st_global(oa, 0, acc);
    let k = b.build();

    let mem = DeviceMemory::new(n * 4);
    let mut m = mem;
    m.const_bank = (0..8u32).map(|v| Value::from_f32(v as f32).0).collect();
    let stats = launch(&gtx(), &k, dims1d(1, n), &[Value::from_u32(0)], &m).unwrap();
    for j in 0..n {
        assert_eq!(m.read(j * 4).as_f32(), 28.0);
    }
    assert!(stats.const_hits + stats.const_misses > 0);
}

#[test]
fn texture_fetches_cache_neighbouring_reads() {
    let n = 1024u32;
    let (mut b, i) = with_gtid("tex");
    let outp = b.param();
    let byte = b.shl(i, 2u32);
    let v = b.ld_tex(byte, 0);
    let d = b.fmul(v, 2.0f32);
    let oa = b.iadd(byte, outp);
    b.st_global(oa, 0, d);
    let k = b.build();

    let mut mem = DeviceMemory::new(n * 8);
    for j in 0..n {
        mem.write(n * 4 + j * 4, Value::from_f32(j as f32)); // texture source
    }
    mem.tex_binding = Some((n * 4, n * 4));
    let stats = launch(
        &gtx(),
        &k,
        dims1d(n / 256, 256),
        &[Value::from_u32(0)],
        &mem,
    )
    .unwrap();
    for j in (0..n).step_by(41) {
        assert_eq!(mem.read(j * 4).as_f32(), 2.0 * j as f32);
    }
    // 32 lanes cover 128 bytes = 4 lines; misses fill, rest hit.
    assert!(stats.tex_misses > 0);
}

#[test]
fn spilled_kernel_is_slower_but_correct() {
    // Force spilling with a register cap; results must not change.
    let build = |cap: Option<u32>| -> Kernel {
        let (mut b, i) = with_gtid("spill");
        let xp = b.param();
        let byte = b.shl(i, 2u32);
        let xa = b.iadd(byte, xp);
        let vals: Vec<_> = (0..10).map(|j| b.ld_global(xa, j * 4)).collect();
        let mut acc = vals[0];
        for &v in &vals[1..] {
            acc = b.fadd(acc, v);
        }
        b.st_global(xa, 0, acc);
        b.build_with(g80_isa::BuildOptions {
            opt: g80_isa::OptLevel::O2,
            max_regs: cap,
        })
    };
    let normal = build(None);
    let spilled = build(Some(5));
    assert!(spilled.regs_per_thread <= 5);

    let run = |k: &Kernel| {
        let mem = DeviceMemory::new(1 << 16);
        for j in 0..(1 << 14) {
            mem.write(j * 4, Value::from_f32((j % 10) as f32));
        }
        let s = launch(&gtx(), k, dims1d(8, 128), &[Value::from_u32(0)], &mem).unwrap();
        (mem.read(0).as_f32(), s.cycles)
    };
    let (v_n, c_n) = run(&normal);
    let (v_s, c_s) = run(&spilled);
    assert_eq!(v_n, v_s);
    assert!(c_s > c_n, "spill traffic must cost cycles: {c_s} vs {c_n}");
}

#[test]
fn launch_errors_are_reported() {
    let (mut b, _) = with_gtid("tiny");
    let p = b.param();
    b.st_global(p, 0, 1.0f32);
    let k = b.build();
    let mem = DeviceMemory::new(64);
    let cfg = gtx();

    // 513 threads per block: too many.
    assert!(launch(&cfg, &k, dims1d(1, 513), &[Value::from_u32(0)], &mem).is_err());
    // Zero-sized grid.
    assert!(launch(
        &cfg,
        &k,
        LaunchDims {
            grid: (0, 1),
            block: (32, 1, 1)
        },
        &[Value::from_u32(0)],
        &mem
    )
    .is_err());
    // Wrong parameter count.
    assert!(launch(&cfg, &k, dims1d(1, 32), &[], &mem).is_err());
    // A kernel whose registers can never fit 512 threads.
    let kb = {
        let (mut b, _) = with_gtid("fat");
        let p = b.param();
        b.st_global(p, 0, 2.0f32);
        b.build().with_forced_regs(40)
    };
    assert!(launch(&cfg, &kb, dims1d(1, 512), &[Value::from_u32(0)], &mem).is_err());
}

#[test]
fn block_completes_when_last_warp_exits_past_a_barrier() {
    // Regression: a 2-warp block where warp 0 parks at a barrier inside a
    // warp-uniform branch and warp 1 exits without ever reaching it. The
    // exiting warp must trigger the release check for its parked sibling;
    // previously this deadlock-panicked, and the outcome depended on
    // scheduling order.
    let mut b = KernelBuilder::new("exit_past_barrier");
    let outp = b.param();
    let tid = b.tid_x();
    let warp0 = b.setp(CmpOp::Lt, Scalar::U32, tid, 32u32);
    b.if_(Pred::if_true(warp0), |b| {
        b.bar();
        let byte = b.shl(tid, 2u32);
        let oa = b.iadd(byte, outp);
        b.st_global(oa, 0, 7.0f32);
    });
    let k = b.build();
    let mem = DeviceMemory::new(4096);
    let stats = launch(&gtx(), &k, dims1d(1, 64), &[Value::from_u32(0)], &mem).unwrap();
    assert_eq!(mem.read(0).as_f32(), 7.0);
    assert_eq!(mem.read(31 * 4).as_f32(), 7.0);
    assert!(stats.cycles > 0);
}

#[test]
fn partial_warps_respect_the_warp_context_limit() {
    // 97-thread blocks occupy 4 warp contexts each; the scheduler must cap
    // residency at 6 blocks (24 warp contexts), not 7 (768/97 threads).
    let cfg = gtx();
    assert_eq!(cfg.blocks_per_sm(8, 0, 97), 6);
    // And the occupancy metric can never exceed 100%.
    let (mut b, i) = with_gtid("warpctx");
    let p = b.param();
    let byte = b.shl(i, 2u32);
    let a = b.iadd(byte, p);
    b.st_global(a, 0, 1.0f32);
    let k = b.build();
    let mem = DeviceMemory::new(1 << 16);
    let stats = launch(
        &cfg,
        &k,
        LaunchDims {
            grid: (32, 1),
            block: (97, 1, 1),
        },
        &[Value::from_u32(0)],
        &mem,
    )
    .unwrap();
    assert!(stats.blocks_per_sm <= 6);
    assert!(
        stats.occupancy() <= 1.0 + 1e-9,
        "occupancy {}",
        stats.occupancy()
    );
}

/// An `sfu.sin`/`sfu.cos` whose operand row is `Uniform` (a kernel
/// parameter) is folded through the scalar SFU once per warp; the same value
/// arriving as a `Full` row (loaded from memory, one copy per lane) goes
/// through the 32-lane row kernel. The two must give the same bits — on the
/// polynomial path, at its ±8192 edge, beyond it and on a non-finite input.
#[test]
fn sfu_trig_on_a_uniform_row_folds_to_the_row_kernels_bits() {
    let n = 64u32;
    let (mut b, i) = with_gtid("sfu_fold");
    let (xp, outp, v) = (b.param(), b.param(), b.param());
    let byte = b.shl(i, 2u32);
    let xa = b.iadd(byte, xp);
    let lanes = b.ld_global(xa, 0);
    let oa = b.shl(i, 4u32);
    let oa = b.iadd(oa, outp);
    for (slot, op) in [(0, SfuOp::Sin), (8, SfuOp::Cos)] {
        let folded = b.sfu(op, v);
        let row = b.sfu(op, lanes);
        b.st_global(oa, slot, folded);
        b.st_global(oa, slot + 4, row);
    }
    let k = b.build();

    for x in [0.3f32, -2.5, 100.0, 8192.0, -8193.0, 1e9, f32::INFINITY] {
        let mem = DeviceMemory::new(n * 4 + n * 16);
        for j in 0..n {
            mem.write(j * 4, Value::from_f32(x));
        }
        let params = [
            Value::from_u32(0),
            Value::from_u32(n * 4),
            Value::from_f32(x),
        ];
        launch(&gtx(), &k, dims1d(1, n), &params, &mem).unwrap();
        for j in 0..n {
            let at = |slot: u32| mem.read(n * 4 + j * 16 + slot);
            for (slot, op) in [(0, SfuOp::Sin), (8, SfuOp::Cos)] {
                let want = g80_isa::eval_sfu(op, Value::from_f32(x));
                assert_eq!(at(slot), want, "{op:?}({x}) folded, thread {j}");
                assert_eq!(at(slot + 4), want, "{op:?}({x}) 32-lane row, thread {j}");
            }
        }
    }
}

/// An 8×8 block's `tid` rows are affine per run of eight lanes, so its
/// address chain folds — but only while every live lane is active. Inside a
/// branch that splits each run (`tid.x < 4`) the mask no longer equals the
/// warp's `init_mask`: the shaped destination must materialize (inactive
/// lanes keep the values the shape implied) and the op run lane by lane.
/// The same kernel with the split at 8 takes the branch whole and folds.
#[test]
fn divergent_narrow_warp_materializes_and_runs_eagerly() {
    use g80_sim::{row_counters, SimConfig, SimContext};
    let mut b = KernelBuilder::new("narrow_diverge");
    let (outp, split) = (b.param(), b.param());
    let (tx, ty) = (b.tid_x(), b.tid_y());
    let v = b.imad(ty, 8u32, tx); // linear thread index: one shaped row
    let byte = b.shl(v, 2u32);
    let addr = b.iadd(byte, outp);
    let low = b.setp(CmpOp::Lt, Scalar::U32, tx, split);
    b.if_(Pred::if_true(low), |b| {
        let scaled = b.imul(v, 3u32);
        b.mov_to(v, scaled);
    });
    b.if_(Pred::if_false(low), |b| {
        b.iadd_to(v, v, 100u32);
    });
    let shifted = b.iadd(v, tx);
    b.st_global(addr, 0, shifted);
    let k = b.build();

    let dims = LaunchDims {
        grid: (1, 1),
        block: (8, 8, 1),
    };
    let run = |split: u32| {
        let cfg = SimConfig {
            memo: false,
            dedup: false,
            ..SimConfig::default()
        };
        SimContext::new(cfg).enter(|| {
            let mem = DeviceMemory::new(64 * 4);
            let params = [Value::from_u32(0), Value::from_u32(split)];
            let stats = launch(&gtx(), &k, dims, &params, &mem).unwrap();
            for t in 0..64u32 {
                let x = t % 8;
                let want = if x < split { t * 3 } else { t + 100 } + x;
                assert_eq!(mem.read(t * 4).as_u32(), want, "split {split}, thread {t}");
            }
            (stats, row_counters())
        })
    };
    let (whole, whole_rows) = run(8);
    let (split, split_rows) = run(4);
    assert_eq!(whole.divergent_branches, 0);
    assert_eq!(split.divergent_branches, 4, "both warps, both branches");
    // Same instructions up to the skipped else-body; the ones under a
    // partial mask moved from shaped to full, and so did everything that
    // reads `v` after them.
    assert!(
        whole_rows.full < split_rows.full,
        "{whole_rows:?} {split_rows:?}"
    );
    assert!(
        whole_rows.affine > split_rows.affine,
        "{whole_rows:?} {split_rows:?}"
    );
    // Undiverged, only the predicate (comparisons fold from uniform rows
    // alone) is evaluated lane by lane.
    assert_eq!(whole_rows.full, 2, "{whole_rows:?}");
}

/// The two half-warps of a block of `threads` threads whose thread `tid`
/// accesses byte `4·(off + tid·stride)`: lanes past the block are inactive.
fn strided_halves(threads: u32, stride: u32, off: u32) -> [[Option<u32>; 16]; 2] {
    std::array::from_fn(|h| {
        std::array::from_fn(|l| {
            let tid = (16 * h + l) as u32;
            (tid < threads).then_some(4 * (off + tid * stride))
        })
    })
}

/// Every stride of 0..=32 words and every misalignment of 0..=16 words of a
/// single global load costs, inside the engine, exactly what the definitional
/// per-half-warp coalescing rule says, on CC 1.0 and on a GT200-like part
/// (duplicates combined, 32 B transactions). A 32-thread block takes the
/// shaped closed form; a 24-thread block's partly live hi half the scan.
#[test]
fn global_load_costs_follow_the_coalescing_rule_per_stride_and_offset() {
    let mut b = KernelBuilder::new("strided_ld");
    let (stride, off) = (b.param(), b.param());
    let tid = b.tid_x();
    let word = b.imad(tid, stride, off);
    let byte = b.shl(word, 2u32);
    b.ld_global(byte, 0);
    let k = b.build();
    let mem = DeviceMemory::new(8192);
    for cfg in [gtx(), GpuConfig::gtx280_like()] {
        for threads in [32, 24] {
            for s in 0..=32u32 {
                for o in 0..=16u32 {
                    let params = [Value::from_u32(s), Value::from_u32(o)];
                    let stats = launch(&cfg, &k, dims1d(1, threads), &params, &mem).unwrap();
                    let halves =
                        strided_halves(threads, s, o).map(|h| coalesce_half_warp(&cfg, &h));
                    let live = halves.iter().filter(|h| h.transactions > 0);
                    let count = |coalesced: bool| {
                        live.clone().filter(|h| h.coalesced == coalesced).count() as u64
                    };
                    let want = (
                        live.clone().map(|h| h.transactions as u64).sum::<u64>(),
                        count(true),
                        count(false),
                        live.clone().map(|h| h.bytes).sum::<u64>(),
                    );
                    let got = (
                        stats.global_ld_transactions,
                        stats.coalesced_half_warps,
                        stats.uncoalesced_half_warps,
                        stats.global_bytes,
                    );
                    let what = format!("{} threads, stride {s}, offset {o}", threads);
                    assert_eq!(got, want, "{what}, combine={}", cfg.combine_duplicates);
                }
            }
        }
    }
}

/// Every shared stride of 0..=32 words costs, inside the engine, the
/// definitional bank-conflict degree of the worse half-warp, less one, in
/// issue slots; both block shapes as for the global sweep.
#[test]
fn shared_load_costs_follow_the_bank_rule_per_stride() {
    let mut b = KernelBuilder::new("strided_ld_shared");
    let stride = b.param();
    let smem = b.shared_alloc(32 * 32 + 1);
    let tid = b.tid_x();
    let word = b.imul(tid, stride);
    let byte = b.shl(word, 2u32);
    b.ld_shared(byte, smem as i32);
    let k = b.build();
    let mem = DeviceMemory::new(64);
    for cfg in [gtx(), GpuConfig::gtx280_like()] {
        for threads in [32, 24] {
            for s in 0..=32u32 {
                let stats =
                    launch(&cfg, &k, dims1d(1, threads), &[Value::from_u32(s)], &mem).unwrap();
                let [lo, hi] =
                    strided_halves(threads, s, 0).map(|h| smem_conflict_degree(&cfg, &h));
                let want = cfg.issue_cycles * (lo.max(hi) as u64 - 1);
                assert_eq!(
                    stats.smem_conflict_extra_cycles, want,
                    "{threads} threads, stride {s}, combine={}",
                    cfg.combine_duplicates
                );
            }
        }
    }
}

/// A grid smaller than the SM count submits tasks only for the busy SMs;
/// stats and outputs match the reference engine stepping through all 16.
#[test]
fn small_grid_skips_empty_sms() {
    let cfg = gtx();
    // Stores tid to the param address.
    let mut bk = KernelBuilder::new("tiny");
    let p = bk.param();
    let tid = bk.tid_x();
    let byte = bk.shl(tid, 2u32);
    let addr = bk.iadd(byte, p);
    bk.st_global(addr, 0, tid);
    let k = bk.build();
    assert!(2 < cfg.num_sms);
    let run = |ctx: std::sync::Arc<SimContext>| {
        let mem = DeviceMemory::new(1 << 16);
        let stats = ctx
            .enter(|| launch(&cfg, &k, dims1d(2, 32), &[Value::from_u32(0)], &mem))
            .expect("small grid launch");
        let words: Vec<u32> = (0..64).map(|i| mem.read(i * 4).as_u32()).collect();
        (stats, words)
    };
    let (product, product_mem) = run(SimContext::new(SimConfig::default()));
    let (reference, reference_mem) = run(g80_oracle::context(SimConfig::default()));
    assert_eq!(product_mem, reference_mem);
    // Both blocks store tid (block-local) to the same 32 words.
    assert_eq!(
        product_mem,
        (0..32)
            .chain(std::iter::repeat_n(0, 32))
            .collect::<Vec<u32>>()
    );
    assert_eq!(product.cycles, reference.cycles);
    assert_eq!(product.warp_instructions, reference.warp_instructions);
    assert_eq!(product.stall_cycles, reference.stall_cycles);
    assert_eq!(product.blocks_executed, reference.blocks_executed);
}
